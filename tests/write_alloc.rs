//! The write path counted, not timed: a counting global allocator
//! bounds the heap allocations of one `store_rw`-shaped durable update
//! transaction.
//!
//! The class is `item(bucket indexed, val, pad)` with a ~1 KiB `pad`
//! string per row. One write transaction, as the benchmark's writer
//! runs it, is begin, an update of one row's `val` and `pad`, and a
//! commit through the WAL (group commit on, no window, no rules). The
//! new `pad` values are built before the measured window, so the count
//! is the engine's alone. The WAL stays far below its checkpoint
//! threshold, so no checkpoint falls in the window. Keep this the only
//! test in its binary: a test running beside it would count into the
//! same counter.
//!
//! Recorded with the Object Manager's write tracking (a set of written
//! class names per transaction family, a `String` per name and a `Vec`
//! of touched classes per commit, kept for a cross-batch match memo)
//! and with `DurableStore::commit` copying every batch, the row's
//! value included: 40.7 allocations per update transaction. Without
//! either: 34.7. With the Rule Manager's event bridge asking the event
//! registry first, and building no event report (class lineage, payload,
//! parameter map) for an operation no event watches, and the listener
//! list shared instead of copied per operation: 24.7. With the commit
//! staging each op as one memtable entry instead of inserting its value
//! into the heap and its key into the B+tree: 20.2.

mod counting_alloc;

use counting_alloc::ALLOCS;
use hipac::prelude::*;
use std::sync::atomic::Ordering;

const ROWS: usize = 1_000;
const PAD_BYTES: usize = 1_000;
const WARM: u64 = 50;
const MEASURED: u64 = 500;

/// Allocations per update transaction allowed (40.7 with write
/// tracking and the batch copy, 34.7 without; 24.7 without an event
/// report nothing watches; 20.2 with the commit writing no page).
const ALLOCS_PER_WRITE_MAX: f64 = 20.5;

fn pad(n: u64) -> Value {
    char::from(b'a' + (n % 26) as u8)
        .to_string()
        .repeat(PAD_BYTES)
        .into()
}

#[test]
fn write_path_allocations_are_bounded() {
    let dir = std::env::temp_dir().join(format!("hipac-write-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = ActiveDatabase::builder()
        .workers(2)
        .durable(&dir)
        .build()
        .unwrap();
    let oids = db
        .run_top(|t| {
            db.store().create_class(
                t,
                "item",
                None,
                vec![
                    AttrDef::new("bucket", ValueType::Int).indexed(),
                    AttrDef::new("val", ValueType::Int),
                    AttrDef::new("pad", ValueType::Str),
                ],
            )?;
            (0..ROWS)
                .map(|i| {
                    let row = vec![((i / 100) as i64).into(), (-1i64).into(), pad(i as u64)];
                    db.store().insert(t, "item", row)
                })
                .collect::<Result<Vec<_>>>()
        })
        .unwrap();
    let store = std::sync::Arc::clone(db.durable_store().expect("durable"));
    store.checkpoint().unwrap();

    // One update transaction of one row, committed.
    let write = |n: u64, pad: Value| {
        let t = db.begin();
        let oid = oids[(n as usize * 7) % ROWS];
        db.store()
            .update(t, oid, &[("val", (n as i64).into()), ("pad", pad)])
            .unwrap();
        db.commit(t).unwrap();
    };

    for n in 0..WARM {
        write(n, pad(n));
    }
    let mut pads: Vec<Value> = (WARM..WARM + MEASURED).rev().map(pad).collect();
    let lsn0 = store.durable_lsn();
    let before = ALLOCS.load(Ordering::SeqCst);
    for n in WARM..WARM + MEASURED {
        write(n, pads.pop().expect("one pad per write"));
    }
    let per_write = (ALLOCS.load(Ordering::SeqCst) - before) as f64 / MEASURED as f64;
    assert!(
        store.durable_lsn() - lsn0 >= MEASURED * PAD_BYTES as u64,
        "every write reached the WAL"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!("{per_write:.1} allocations per durable update transaction");
    assert!(
        per_write <= ALLOCS_PER_WRITE_MAX,
        "{per_write:.1} allocations per write"
    );
}
