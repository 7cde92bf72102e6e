//! Edge-case tests for the replication tail API (`Wal::read_batches_from`
//! and the `DurableStore` producer/consumer methods): torn tails,
//! partial batches at EOF, LSN ranges across checkpoint truncation, and
//! the core equivalence guarantee — applying shipped batches from an
//! LSN is indistinguishable from full crash recovery.

use hipac_common::{HipacError, TxnId};
use hipac_storage::{
    DurableStore, ReplBatch, StoreOp, TailRead, Wal, WalBatch, WalRecord, REPL_APPLIED_KEY,
};
use std::io::Write;
use std::ops::Bound;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hipac-wal-tail/{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn put(key: &[u8], value: &[u8]) -> StoreOp {
    StoreOp::Put {
        key: key.to_vec(),
        value: value.to_vec(),
    }
}

fn batch_records(txn: u64, ops: &[StoreOp]) -> Vec<WalRecord> {
    let mut recs = vec![WalRecord::Begin { txn: TxnId(txn) }];
    for op in ops {
        recs.push(match op {
            StoreOp::Put { key, value } => WalRecord::Put {
                txn: TxnId(txn),
                key: key.clone(),
                value: value.clone(),
            },
            StoreOp::Delete { key } => WalRecord::Delete {
                txn: TxnId(txn),
                key: key.clone(),
            },
        });
    }
    recs.push(WalRecord::Commit { txn: TxnId(txn) });
    recs
}

/// Everything the store holds except the replica watermark.
fn contents(store: &DurableStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    store
        .range(Bound::Unbounded, Bound::Unbounded)
        .unwrap()
        .into_iter()
        .filter(|(k, _)| k != REPL_APPLIED_KEY)
        .collect()
}

#[test]
fn tail_follows_live_appends() {
    let dir = tmpdir("follow");
    let path = dir.join("wal.log");
    let (wal, _) = Wal::open(&path).unwrap();
    wal.append_all(&batch_records(1, &[put(b"a", b"1")])).unwrap();
    wal.append_all(&batch_records(2, &[put(b"b", b"2")])).unwrap();
    wal.sync().unwrap();
    let TailRead::Batches {
        batches,
        next_lsn,
        durable_lsn,
    } = wal.read_batches_from(0, 1 << 20).unwrap()
    else {
        panic!("in-range read must yield batches");
    };
    assert_eq!(batches.len(), 2);
    assert_eq!(batches[0].txn, TxnId(1));
    assert_eq!(batches[0].ops, vec![put(b"a", b"1")]);
    assert_eq!(batches[0].start_lsn, 0);
    assert_eq!(batches[0].next_lsn, batches[1].start_lsn);
    assert_eq!(next_lsn, durable_lsn);
    assert_eq!(next_lsn, wal.durable_lsn());
    // A later append is visible only after sync, from the resume point.
    wal.append_all(&batch_records(3, &[put(b"c", b"3")])).unwrap();
    let TailRead::Batches { batches, .. } = wal.read_batches_from(next_lsn, 1 << 20).unwrap()
    else {
        panic!("still in range");
    };
    assert!(batches.is_empty(), "unsynced bytes are not served");
    wal.sync().unwrap();
    let TailRead::Batches { batches, next_lsn: n2, .. } =
        wal.read_batches_from(next_lsn, 1 << 20).unwrap()
    else {
        panic!("still in range");
    };
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].txn, TxnId(3));
    assert_eq!(n2, wal.durable_lsn());
}

#[test]
fn partial_batch_at_eof_is_withheld_until_committed() {
    let dir = tmpdir("partial");
    let path = dir.join("wal.log");
    let (wal, _) = Wal::open(&path).unwrap();
    wal.append_all(&batch_records(1, &[put(b"a", b"1")])).unwrap();
    // An open batch: Begin + Put, no Commit yet.
    wal.append_all(&[
        WalRecord::Begin { txn: TxnId(2) },
        WalRecord::Put {
            txn: TxnId(2),
            key: b"b".to_vec(),
            value: b"2".to_vec(),
        },
    ])
    .unwrap();
    wal.sync().unwrap();
    let TailRead::Batches { batches, next_lsn, durable_lsn } =
        wal.read_batches_from(0, 1 << 20).unwrap()
    else {
        panic!("in range");
    };
    assert_eq!(batches.len(), 1, "the open batch must be withheld");
    assert!(
        next_lsn < durable_lsn,
        "resume point parks at the open batch's Begin frame"
    );
    assert_eq!(next_lsn, batches[0].next_lsn);
    // Completing the batch releases it from the parked resume point.
    wal.append(&WalRecord::Commit { txn: TxnId(2) }).unwrap();
    wal.sync().unwrap();
    let TailRead::Batches { batches, next_lsn: n2, durable_lsn: d2 } =
        wal.read_batches_from(next_lsn, 1 << 20).unwrap()
    else {
        panic!("in range");
    };
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].txn, TxnId(2));
    assert_eq!(batches[0].ops, vec![put(b"b", b"2")]);
    assert_eq!(n2, d2);
}

#[test]
fn torn_bytes_at_eof_are_truncated_before_serving() {
    let dir = tmpdir("torn");
    let path = dir.join("wal.log");
    {
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append_all(&batch_records(1, &[put(b"a", b"1")])).unwrap();
        wal.sync().unwrap();
    }
    // A torn frame at EOF, as a crash mid-append would leave it.
    {
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x11, 0x22, 0x33, 0x44, 0x55]).unwrap();
    }
    let (wal, recovered) = Wal::open(&path).unwrap();
    assert_eq!(recovered.len(), 3, "Begin/Put/Commit survive, garbage gone");
    let TailRead::Batches { batches, next_lsn, durable_lsn } =
        wal.read_batches_from(0, 1 << 20).unwrap()
    else {
        panic!("in range");
    };
    assert_eq!(batches.len(), 1);
    assert_eq!(next_lsn, durable_lsn, "truncation restored a clean frontier");
}

#[test]
fn reset_moves_the_lsn_base_and_old_lsns_go_out_of_range() {
    let dir = tmpdir("reset");
    let path = dir.join("wal.log");
    let (wal, _) = Wal::open(&path).unwrap();
    wal.append_all(&batch_records(1, &[put(b"a", b"1")])).unwrap();
    wal.sync().unwrap();
    let pre_reset = wal.durable_lsn();
    assert!(pre_reset > 0);
    wal.reset().unwrap();
    assert_eq!(wal.start_lsn(), pre_reset, "truncated bytes fold into the base");
    assert_eq!(wal.durable_lsn(), pre_reset);
    // A resume point inside the truncated range demands a snapshot.
    match wal.read_batches_from(0, 1 << 20).unwrap() {
        TailRead::OutOfRange { start_lsn, durable_lsn } => {
            assert_eq!(start_lsn, pre_reset);
            assert_eq!(durable_lsn, pre_reset);
        }
        other => panic!("expected OutOfRange, got {other:?}"),
    }
    // The exact frontier is still a valid (empty) resume point.
    match wal.read_batches_from(pre_reset, 1 << 20).unwrap() {
        TailRead::Batches { batches, next_lsn, .. } => {
            assert!(batches.is_empty());
            assert_eq!(next_lsn, pre_reset);
        }
        other => panic!("expected empty Batches, got {other:?}"),
    }
    // An LSN past the durable frontier is also out of range.
    assert!(matches!(
        wal.read_batches_from(pre_reset + 1, 1 << 20).unwrap(),
        TailRead::OutOfRange { .. }
    ));
    // The base survives reopen via the sidecar.
    drop(wal);
    let (wal, _) = Wal::open(&path).unwrap();
    assert_eq!(wal.start_lsn(), pre_reset);
    wal.append_all(&batch_records(2, &[put(b"b", b"2")])).unwrap();
    wal.sync().unwrap();
    let TailRead::Batches { batches, .. } =
        wal.read_batches_from(pre_reset, 1 << 20).unwrap()
    else {
        panic!("in range");
    };
    assert_eq!(batches.len(), 1);
    assert!(batches[0].start_lsn >= pre_reset, "LSNs never regress");
}

#[test]
fn oversized_batch_exceeding_the_window_still_ships() {
    let dir = tmpdir("oversize");
    let path = dir.join("wal.log");
    let (wal, _) = Wal::open(&path).unwrap();
    let big = vec![0xabu8; 200 * 1024]; // larger than the 64 KiB floor
    wal.append_all(&batch_records(1, &[put(b"big", &big)])).unwrap();
    wal.sync().unwrap();
    let TailRead::Batches { batches, next_lsn, durable_lsn } =
        wal.read_batches_from(0, 1024).unwrap()
    else {
        panic!("in range");
    };
    assert_eq!(batches.len(), 1, "window must grow to fit one batch");
    assert_eq!(batches[0].ops, vec![put(b"big", &big)]);
    assert_eq!(next_lsn, durable_lsn);
}

#[test]
fn abort_and_checkpoint_markers_are_skipped_not_shipped() {
    let dir = tmpdir("markers");
    let path = dir.join("wal.log");
    let (wal, _) = Wal::open(&path).unwrap();
    // An aborted batch, a checkpoint marker, then a committed batch.
    wal.append_all(&[
        WalRecord::Begin { txn: TxnId(7) },
        WalRecord::Put {
            txn: TxnId(7),
            key: b"phantom".to_vec(),
            value: b"x".to_vec(),
        },
        WalRecord::Abort { txn: TxnId(7) },
        WalRecord::Checkpoint,
    ])
    .unwrap();
    wal.append_all(&batch_records(8, &[put(b"real", b"y")])).unwrap();
    wal.sync().unwrap();
    let TailRead::Batches { batches, next_lsn, durable_lsn } =
        wal.read_batches_from(0, 1 << 20).unwrap()
    else {
        panic!("in range");
    };
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].ops, vec![put(b"real", b"y")]);
    assert_eq!(next_lsn, durable_lsn, "markers are consumed by the resume point");
}

/// The core guarantee of the tail API: bootstrapping a replica from a
/// snapshot at LSN `s` and applying every shipped batch after `s`
/// reaches exactly the state full crash recovery reaches — including
/// across a checkpoint truncation (snapshot fallback) and a torn
/// uncommitted batch at EOF.
#[test]
fn replay_from_lsn_is_equivalent_to_full_recovery() {
    let a_dir = tmpdir("equiv-primary");
    let b_dir = tmpdir("equiv-replica");
    let a = DurableStore::open(&a_dir).unwrap();
    for i in 0..20u64 {
        a.commit(TxnId(i + 1), &[put(format!("k{i}").as_bytes(), &[i as u8; 32])])
            .unwrap();
    }
    // Bootstrap the replica from a snapshot mid-stream.
    let (snap_lsn, pairs) = a.snapshot_for_repl().unwrap();
    let b = DurableStore::open(&b_dir).unwrap();
    b.install_snapshot(&pairs, snap_lsn).unwrap();
    assert_eq!(b.replicated_applied_lsn().unwrap(), Some(snap_lsn));

    // More traffic on the primary, including overwrites and deletes.
    for i in 0..20u64 {
        a.commit(
            TxnId(100 + i),
            &[
                put(format!("k{i}").as_bytes(), &[0xee; 16]),
                StoreOp::Delete {
                    key: format!("k{}", (i + 1) % 20).into_bytes(),
                },
            ],
        )
        .unwrap();
    }
    // Tail everything committed after the snapshot into the replica,
    // chaining each batch onto the previous one's frontier exactly as
    // the shipper's per-peer `chained` cursor does.
    let mut at = snap_lsn;
    let mut chain = snap_lsn;
    loop {
        match a.read_batches_from(at, 64 * 1024).unwrap() {
            TailRead::Batches { batches, next_lsn, durable_lsn } => {
                for bt in batches {
                    b.apply_replicated(&bt.ops, chain, bt.next_lsn).unwrap();
                    chain = bt.next_lsn;
                }
                at = next_lsn;
                if next_lsn == durable_lsn {
                    break;
                }
            }
            TailRead::OutOfRange { .. } => {
                let (s, p) = a.snapshot_for_repl().unwrap();
                b.install_snapshot(&p, s).unwrap();
                at = s;
                chain = s;
            }
        }
    }
    assert_eq!(b.replicated_applied_lsn().unwrap(), Some(at));

    // A batch that reached the durable log but crashed before the
    // in-memory apply ("log-only crash") is recovered by reopen — and
    // the tail must ship it identically.
    a.commit_log_only_for_crash_test(TxnId(999), &[put(b"log-only", b"x")])
        .unwrap();
    match a.read_batches_from(at, 64 * 1024).unwrap() {
        TailRead::Batches { batches, next_lsn, .. } => {
            assert_eq!(batches.len(), 1);
            for bt in batches {
                b.apply_replicated(&bt.ops, chain, bt.next_lsn).unwrap();
                chain = bt.next_lsn;
            }
            at = next_lsn;
        }
        other => panic!("expected the log-only batch, got {other:?}"),
    }

    // Full recovery: reopen the primary's directory from disk.
    drop(a);
    let recovered = DurableStore::open(&a_dir).unwrap();
    assert_eq!(
        contents(&recovered),
        contents(&b),
        "replica state equals full recovery"
    );

    // And a checkpoint on the recovered primary forces the snapshot
    // path for stale resume points without breaking equivalence.
    recovered.checkpoint().unwrap();
    let _ = (at, chain);
    assert!(matches!(
        recovered.read_batches_from(snap_lsn, 64 * 1024).unwrap(),
        TailRead::OutOfRange { .. }
    ));
}

/// A replicated batch must chain exactly onto the replica's applied
/// watermark. Skipped batches (prev ahead of the watermark) and
/// replayed batches (prev behind it) are both refused with `ReplGap`
/// and leave the store untouched, so a follower resubscribes instead
/// of silently diverging.
#[test]
fn apply_replicated_rejects_stream_gaps() {
    let a_dir = tmpdir("gap-primary");
    let b_dir = tmpdir("gap-replica");
    let a = DurableStore::open(&a_dir).unwrap();
    a.commit(TxnId(1), &[put(b"k1", b"v1")]).unwrap();
    a.commit(TxnId(2), &[put(b"k2", b"v2")]).unwrap();
    let TailRead::Batches { batches, .. } = a.read_batches_from(0, 1 << 20).unwrap() else {
        panic!("in range");
    };
    assert_eq!(batches.len(), 2);

    let b = DurableStore::open(&b_dir).unwrap();
    // Skipping the first batch must be refused, not absorbed.
    let second = &batches[1];
    let err = b
        .apply_replicated(&second.ops, second.start_lsn, second.next_lsn)
        .unwrap_err();
    assert!(matches!(err, HipacError::ReplGap { expected: 0, .. }), "got {err}");
    assert!(contents(&b).is_empty(), "a refused batch must not touch the store");
    assert_eq!(b.replicated_applied_lsn().unwrap(), None);

    // Correctly chained application is accepted.
    let mut chain = 0;
    for bt in &batches {
        b.apply_replicated(&bt.ops, chain, bt.next_lsn).unwrap();
        chain = bt.next_lsn;
    }
    assert_eq!(b.replicated_applied_lsn().unwrap(), Some(chain));
    assert_eq!(contents(&a), contents(&b));

    // A replayed (stale) batch is likewise a gap, not a rewind.
    let first = &batches[0];
    let err = b.apply_replicated(&first.ops, 0, first.next_lsn).unwrap_err();
    assert!(matches!(err, HipacError::ReplGap { .. }), "got {err}");
    assert_eq!(b.replicated_applied_lsn().unwrap(), Some(chain));
}

/// Commit `k` one-key batches on a fresh primary and tail them back:
/// the batches, each paired with the chain position it ships from
/// (exactly as the shipper stamps `prev_lsn`).
fn shipped_batches(name: &str, k: usize) -> Vec<(u64, WalBatch)> {
    let a = DurableStore::open(&tmpdir(name)).unwrap();
    for i in 0..k {
        let key = format!("k{i:02}");
        let ops = [
            put(key.as_bytes(), &[i as u8; 24]),
            put(b"last", key.as_bytes()),
        ];
        a.commit(TxnId(i as u64 + 1), &ops).unwrap();
    }
    let TailRead::Batches { batches, .. } = a.read_batches_from(0, 1 << 20).unwrap() else {
        panic!("in range");
    };
    assert_eq!(batches.len(), k);
    let mut chain = 0;
    batches
        .into_iter()
        .map(|b| {
            let prev = std::mem::replace(&mut chain, b.next_lsn);
            (prev, b)
        })
        .collect()
}

fn as_run<'a>(batches: &[&'a (u64, WalBatch)]) -> Vec<ReplBatch<'a>> {
    batches
        .iter()
        .map(|(prev, b)| ReplBatch {
            ops: &b.ops,
            prev_lsn: *prev,
            next_lsn: b.next_lsn,
        })
        .collect()
}

/// WAL batches `store` has appended since `from_lsn`.
fn own_batches_since(store: &DurableStore, from_lsn: u64) -> usize {
    match store.read_batches_from(from_lsn, 1 << 24).unwrap() {
        TailRead::Batches { batches, .. } => batches.len(),
        other => panic!("own log out of range: {other:?}"),
    }
}

/// A run of k chaining batches is exactly one WAL batch on the replica
/// (one append, one fsync — one group-commit cohort when grouping is
/// on), its watermark is the last batch's `next_lsn`, and it leaves
/// the same contents as k one-batch applies. Holds in both commit
/// modes.
#[test]
fn grouped_apply_is_one_wal_batch_equal_to_k_single_applies() {
    const K: usize = 12;
    let shipped = shipped_batches("run-primary", K);
    let last = shipped[K - 1].1.next_lsn;
    for grouped in [true, false] {
        let run_store = DurableStore::open(&tmpdir(&format!("run-grouped-{grouped}"))).unwrap();
        let one_store = DurableStore::open(&tmpdir(&format!("run-single-{grouped}"))).unwrap();
        for s in [&run_store, &one_store] {
            s.set_group_commit(grouped, std::time::Duration::ZERO);
        }

        let groups_before = run_store.group_commit_stats().groups;
        let lsn_before = run_store.durable_lsn();
        let all: Vec<_> = shipped.iter().collect();
        run_store.apply_replicated_run(&as_run(&all)).unwrap();
        assert_eq!(
            own_batches_since(&run_store, lsn_before),
            1,
            "grouped={grouped}"
        );
        let groups = run_store.group_commit_stats().groups - groups_before;
        assert_eq!(
            groups,
            u64::from(grouped),
            "one cohort per run (grouped={grouped})"
        );
        assert_eq!(run_store.replicated_applied_lsn().unwrap(), Some(last));

        let lsn_before = one_store.durable_lsn();
        for (prev, b) in &shipped {
            one_store
                .apply_replicated(&b.ops, *prev, b.next_lsn)
                .unwrap();
        }
        assert_eq!(own_batches_since(&one_store, lsn_before), K);
        assert_eq!(one_store.replicated_applied_lsn().unwrap(), Some(last));
        assert_eq!(
            contents(&run_store),
            contents(&one_store),
            "grouped={grouped}"
        );
        assert_eq!(contents(&run_store).len(), K + 1);

        // The watermark survives reopen with the run's data.
        let dir = tmpdir(&format!("run-reopen-{grouped}"));
        let reopened = {
            let s = DurableStore::open(&dir).unwrap();
            s.apply_replicated_run(&as_run(&all)).unwrap();
            drop(s);
            DurableStore::open(&dir).unwrap()
        };
        assert_eq!(reopened.replicated_applied_lsn().unwrap(), Some(last));
        assert_eq!(contents(&reopened), contents(&one_store));
    }
}

/// A run whose j-th batch does not chain — skipped, replayed, or
/// off by one — returns `ReplGap` naming the chain position it broke
/// at, and commits nothing of the run, not even the chaining prefix:
/// the watermark, the contents and the replica's own WAL all stay at
/// the pre-run state. The correct run then applies cleanly.
#[test]
fn grouped_apply_gap_commits_nothing_of_the_run() {
    const K: usize = 10;
    const J: usize = 6;
    let shipped = shipped_batches("run-gap-primary", K);
    for grouped in [true, false] {
        let b = DurableStore::open(&tmpdir(&format!("run-gap-replica-{grouped}"))).unwrap();
        b.set_group_commit(grouped, std::time::Duration::ZERO);
        // A first run establishes a non-empty pre-run state.
        b.apply_replicated_run(&as_run(&[&shipped[0], &shipped[1]]))
            .unwrap();
        let watermark = shipped[1].1.next_lsn;
        let before = contents(&b);
        let lsn_before = b.durable_lsn();

        let skipped: Vec<_> = shipped[2..J].iter().chain(&shipped[J + 1..]).collect();
        let replayed: Vec<_> = shipped[2..J]
            .iter()
            .chain(std::iter::once(&shipped[J - 2]))
            .chain(shipped[J..].iter())
            .collect();
        let mut off_by_one = as_run(&shipped[2..].iter().collect::<Vec<_>>());
        off_by_one[J - 2].prev_lsn += 1;
        let cases = [
            (
                "skipped",
                as_run(&skipped),
                shipped[J - 1].1.next_lsn,
                shipped[J + 1].0,
            ),
            (
                "replayed",
                as_run(&replayed),
                shipped[J - 1].1.next_lsn,
                shipped[J - 2].0,
            ),
            (
                "off by one",
                off_by_one,
                shipped[J - 1].1.next_lsn,
                shipped[J].0 + 1,
            ),
            (
                "first batch",
                as_run(&[&shipped[3], &shipped[4]]),
                watermark,
                shipped[3].0,
            ),
        ];
        for (what, run, want_expected, want_got) in cases {
            match b.apply_replicated_run(&run).unwrap_err() {
                HipacError::ReplGap { expected, got } => {
                    assert_eq!((expected, got), (want_expected, want_got), "{what}");
                }
                other => panic!("{what}: expected ReplGap, got {other}"),
            }
            assert_eq!(
                b.replicated_applied_lsn().unwrap(),
                Some(watermark),
                "{what}"
            );
            assert_eq!(
                contents(&b),
                before,
                "{what}: the chaining prefix must not commit"
            );
            assert_eq!(
                b.durable_lsn(),
                lsn_before,
                "{what}: nothing reached the WAL"
            );
        }

        // The resubscribe re-ships the whole remainder as one run.
        b.apply_replicated_run(&as_run(&shipped[2..].iter().collect::<Vec<_>>()))
            .unwrap();
        assert_eq!(
            b.replicated_applied_lsn().unwrap(),
            Some(shipped[K - 1].1.next_lsn)
        );
        assert_eq!(contents(&b).len(), K + 1);
    }
}

/// A crash after `Wal::reset` persists the pending-truncate sidecar but
/// before the truncate reaches the log file must not re-address the
/// retained old bytes at fresh LSNs: reopen completes the truncate.
#[test]
fn pending_truncate_sidecar_completes_on_reopen() {
    let dir = tmpdir("pending-truncate");
    let path = dir.join("wal.log");
    let (wal, _) = Wal::open(&path).unwrap();
    wal.append_all(&batch_records(1, &[put(b"old", b"x")])).unwrap();
    wal.sync().unwrap();
    let durable = wal.durable_lsn();
    assert!(durable > 0);
    drop(wal);

    // Simulate the crash window: the phase-one sidecar (base advanced,
    // truncate pending) is durable, the log file still holds old bytes.
    let sidecar_path = {
        let mut p = path.as_os_str().to_os_string();
        p.push(".base");
        PathBuf::from(p)
    };
    let mut sidecar = durable.to_le_bytes().to_vec();
    sidecar.extend_from_slice(&1u64.to_le_bytes());
    std::fs::write(&sidecar_path, &sidecar).unwrap();

    let (wal, recovered) = Wal::open(&path).unwrap();
    assert!(recovered.is_empty(), "stale pre-reset records must not replay");
    assert_eq!(wal.start_lsn(), durable);
    assert_eq!(wal.durable_lsn(), durable, "old bytes must not get fresh LSNs");
    assert_eq!(wal.size().unwrap(), 0, "reopen completes the truncate");
    // A caught-up tail resumes cleanly at the new base.
    let TailRead::Batches { batches, next_lsn, .. } =
        wal.read_batches_from(durable, 1 << 20).unwrap()
    else {
        panic!("resume at the new base is in range");
    };
    assert!(batches.is_empty());
    assert_eq!(next_lsn, durable);
}

/// A misaligned resume point leaving fewer than 8 bytes (not even a
/// frame header) of synced region must still fall back to
/// `OutOfRange` so the tail re-snapshots instead of spinning forever
/// on empty reads.
#[test]
fn misaligned_resume_in_final_bytes_forces_snapshot() {
    let dir = tmpdir("misaligned-tail");
    let path = dir.join("wal.log");
    let (wal, _) = Wal::open(&path).unwrap();
    wal.append_all(&batch_records(1, &[put(b"a", b"1")])).unwrap();
    wal.sync().unwrap();
    let durable = wal.durable_lsn();
    assert!(durable >= 8);
    for back in 1..8u64 {
        assert!(
            matches!(
                wal.read_batches_from(durable - back, 1 << 20).unwrap(),
                TailRead::OutOfRange { .. }
            ),
            "resume at durable-{back} must force a snapshot"
        );
    }
    // The true frontier still serves: caught-up, empty, no fallback.
    let TailRead::Batches { batches, next_lsn, .. } =
        wal.read_batches_from(durable, 1 << 20).unwrap()
    else {
        panic!("the frontier is a valid resume point");
    };
    assert!(batches.is_empty());
    assert_eq!(next_lsn, durable);
}

/// The gap-refusal + watermark-resume contract must hold when the
/// producing store runs group commit: cohorts share one fsync, so the
/// batch boundaries the shipper sees come from concurrent committers
/// racing into a flush window, not from a quiet serial append. A
/// skipped cohort batch is still refused with `ReplGap`, and resuming
/// from the replica's durable watermark — exactly what a follower does
/// when it resubscribes after the refusal — replays the remainder to
/// byte-identical contents.
#[test]
fn gap_refusal_and_watermark_resume_under_group_commit() {
    use std::sync::Arc;
    use std::time::Duration;

    let a_dir = tmpdir("gap-gc-primary");
    let b_dir = tmpdir("gap-gc-replica");
    let a = Arc::new(DurableStore::open(&a_dir).unwrap());
    a.set_group_commit(true, Duration::from_micros(200));

    // Concurrent committers so flush cohorts actually form.
    let threads: Vec<_> = (0..4u64)
        .map(|w| {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                for i in 0..25u64 {
                    let txn = w * 1000 + i;
                    let key = format!("k{w}-{i}");
                    a.commit(TxnId(txn), &[put(key.as_bytes(), b"v")]).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let TailRead::Batches { batches, .. } = a.read_batches_from(0, 1 << 24).unwrap() else {
        panic!("in range");
    };
    assert_eq!(
        batches.iter().map(|b| b.ops.len()).sum::<usize>(),
        100,
        "every committed op must ship exactly once"
    );

    let b = DurableStore::open(&b_dir).unwrap();
    // Apply a prefix, then skip one batch: refused, store untouched.
    let split = batches.len() / 2;
    let mut chain = 0;
    for bt in &batches[..split] {
        b.apply_replicated(&bt.ops, chain, bt.next_lsn).unwrap();
        chain = bt.next_lsn;
    }
    let skipped = &batches[split + 1];
    let err = b
        .apply_replicated(&skipped.ops, skipped.start_lsn, skipped.next_lsn)
        .unwrap_err();
    assert!(matches!(err, HipacError::ReplGap { .. }), "got {err}");
    assert_eq!(
        b.replicated_applied_lsn().unwrap(),
        Some(chain),
        "a refused batch must not move the watermark"
    );

    // The resubscribe path: resume shipping from the replica's durable
    // watermark and apply the rest.
    let TailRead::Batches { batches: rest, .. } = a.read_batches_from(chain, 1 << 24).unwrap()
    else {
        panic!("the watermark is a valid resume point");
    };
    for bt in &rest {
        b.apply_replicated(&bt.ops, chain, bt.next_lsn).unwrap();
        chain = bt.next_lsn;
    }
    assert_eq!(chain, a.durable_lsn());
    assert_eq!(contents(&a), contents(&b));
}
