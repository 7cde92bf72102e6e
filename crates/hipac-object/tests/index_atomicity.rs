//! Differential test for secondary-index maintenance: one single-row
//! updater against one indexed bucket reader.
//!
//! The updater commits, back to back, updates that leave the indexed
//! attribute alone and — every few steps — one that moves a row to the
//! other bucket. Re-indexing a row must be invisible to an index probe
//! unless the indexed value really changed, and then the row must be
//! found under its old value or its new one, never under neither: so
//! every read of bucket 0 returns all of its resident rows, and at the
//! end the index plan and a filtered extent scan agree on every bucket.

use hipac_common::{ObjectId, Value, ValueType};
use hipac_object::query::Plan;
use hipac_object::{AttrDef, ObjectStore, Query};
use hipac_txn::TransactionManager;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const RESIDENTS: usize = 4;
const READS: usize = 100_000;

fn bucket_rows(
    tm: &TransactionManager,
    store: &ObjectStore,
    query: &Query,
    bucket: i64,
) -> Vec<(ObjectId, i64)> {
    let params = HashMap::from([("b".to_string(), Value::from(bucket))]);
    tm.run_top(|t| store.query(t, query, Some(&params)))
        .unwrap()
        .into_iter()
        .map(|row| (row.oid, row.values[0].as_int().unwrap()))
        .collect()
}

#[test]
fn an_index_probe_never_misses_a_row_being_reindexed() {
    let tm = Arc::new(TransactionManager::new());
    let store = ObjectStore::new(Arc::clone(&tm), None).unwrap();
    let mut residents = Vec::new();
    let mover = tm
        .run_top(|t| {
            store.create_class(
                t,
                "item",
                None,
                vec![
                    AttrDef::new("bucket", ValueType::Int).indexed(),
                    AttrDef::new("val", ValueType::Int),
                ],
            )?;
            for bucket in 0..2i64 {
                for _ in 0..RESIDENTS {
                    let oid = store.insert(t, "item", vec![bucket.into(), 0i64.into()])?;
                    if bucket == 0 {
                        residents.push(oid);
                    }
                }
            }
            store.insert(t, "item", vec![0i64.into(), 0i64.into()])
        })
        .unwrap();
    let by_bucket = Query::parse("from item where bucket = :b").unwrap();
    let schema = tm.run_top(|t| Ok(store.schema(t))).unwrap();
    assert!(matches!(
        store.plan(&schema, &by_bucket).unwrap(),
        Plan::IndexEq { .. }
    ));

    let stop = AtomicBool::new(false);
    let (short, strays) = std::thread::scope(|s| {
        let updater = s.spawn(|| {
            let mut n = 0i64;
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                tm.run_top(|t| match n % 16 {
                    0 => store.update(t, mover, &[("bucket", (n / 16 % 2).into())]),
                    _ => store.update(t, residents[n as usize % RESIDENTS], &[("val", n.into())]),
                })
                .unwrap();
            }
            n
        });
        let expected: BTreeSet<ObjectId> = residents.iter().copied().collect();
        let (mut short, mut strays) = (0usize, 0usize);
        for _ in 0..READS {
            let rows = bucket_rows(&tm, &store, &by_bucket, 0);
            let found: BTreeSet<ObjectId> = rows.iter().map(|(oid, _)| *oid).collect();
            short += usize::from(!expected.is_subset(&found));
            strays += rows
                .iter()
                .filter(|(oid, bucket)| *bucket != 0 || !(expected.contains(oid) || *oid == mover))
                .count();
        }
        stop.store(true, Ordering::Relaxed);
        let updates = updater.join().expect("updater panicked");
        assert!(updates > 1_000, "the updater barely ran: {updates} commits");
        (short, strays)
    });
    assert_eq!(
        short, 0,
        "{short} of {READS} bucket reads missed a resident row"
    );
    assert_eq!(strays, 0, "{strays} rows came back from the wrong bucket");

    // Index ≡ heap: the index plan and a filtered scan of the extent
    // agree on every bucket.
    let everything: Vec<(ObjectId, i64)> = tm
        .run_top(|t| store.query(t, &Query::all("item"), None))
        .unwrap()
        .into_iter()
        .map(|row| (row.oid, row.values[0].as_int().unwrap()))
        .collect();
    assert_eq!(everything.len(), 2 * RESIDENTS + 1);
    for bucket in 0..3i64 {
        let scanned: BTreeSet<_> = everything.iter().filter(|(_, b)| *b == bucket).collect();
        let probed = bucket_rows(&tm, &store, &by_bucket, bucket);
        assert_eq!(
            probed.iter().collect::<BTreeSet<_>>(),
            scanned,
            "bucket {bucket}"
        );
    }
}
