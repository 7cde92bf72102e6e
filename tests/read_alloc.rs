//! The read path counted, not timed: a counting global allocator
//! bounds the heap allocations of one `store_rw`-shaped read
//! transaction.
//!
//! The class is `item(bucket indexed, val, pad)` with a ~1 KiB `pad`
//! string per row and 100 rows per bucket. One read transaction, as the
//! benchmark's reader runs it, is an indexed bucket query (100 rows)
//! plus four point gets, then the commit; the same read with a
//! projected bucket query may add one allocation per row, the new
//! row's. Keep this the only test in its binary: a test running beside
//! it would count into the same counter.
//!
//! Recorded before row versions were shared by reference count: 353.6
//! allocations per read, about three per row read (its `Vec`, its `pad`
//! `String` and the lock table's holder list for its read lock, for
//! each of the 104 rows) plus the query's own. With the sharing, the
//! lock table keeping a key's one holder inline and the query sizing
//! its buffers from the index hit: 26.0, none of them per row (six are
//! the transaction's key list in the lock table growing to 104 keys).
//! With the query prepared once per call and executed from its
//! prepared form (no per-class predicate map, no member-class set, no
//! plan's cloned attribute name), and the point gets' event listener
//! list shared instead of copied: 20.0, and 124.0 projected (the
//! prepared form's copies of the projected names and its slot list
//! take four of the six the plain read saved).

mod counting_alloc;

use counting_alloc::ALLOCS;
use hipac::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

const BUCKET_ROWS: usize = 100;
const BUCKETS: usize = 10;
const PAD_BYTES: usize = 1_000;
const POINTS: usize = 4;
const WARM: u64 = 50;
const MEASURED: u64 = 500;

/// Allocations per read transaction allowed (353.6 before sharing; 20.0
/// now). One allocation per row read would add 104.
const ALLOCS_PER_READ_MAX: f64 = 26.0;

#[test]
fn read_path_allocations_are_bounded() {
    let db = ActiveDatabase::builder().workers(2).build().unwrap();
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
            let mut oids = Vec::with_capacity(BUCKETS * BUCKET_ROWS);
            for i in 0..BUCKETS * BUCKET_ROWS {
                let pad = char::from(b'a' + (i % 26) as u8)
                    .to_string()
                    .repeat(PAD_BYTES);
                oids.push(db.store().insert(
                    t,
                    "item",
                    vec![
                        ((i / BUCKET_ROWS) as i64).into(),
                        (i as i64).into(),
                        pad.into(),
                    ],
                )?);
            }
            Ok(oids)
        })
        .unwrap();
    let bucket_query = Query::parse("from item where bucket = :b").unwrap();
    let projected_query = Query::parse("from item where bucket = :b select val").unwrap();

    // One read transaction; returns the rows the bucket query found.
    let read = |query: &Query, m: u64| -> usize {
        let bucket = (m as usize * 7) % BUCKETS;
        let params = HashMap::from([("b".to_string(), Value::from(bucket as i64))]);
        db.run_top(|t| {
            let rows = db.store().query(t, query, Some(&params))?;
            for p in 0..POINTS {
                let oid = oids[(m as usize * 31 + p * 257) % oids.len()];
                let rec = db.store().get(t, oid)?;
                assert_eq!(rec.values[2].as_str()?.len(), PAD_BYTES);
            }
            Ok(rows.len())
        })
        .unwrap()
    };

    // Allocations per read transaction, averaged over `MEASURED`.
    let measure = |query: &Query| -> f64 {
        for m in 0..WARM {
            read(query, m);
        }
        let before = ALLOCS.load(Ordering::SeqCst);
        let mut rows = 0;
        for m in WARM..WARM + MEASURED {
            rows += read(query, m);
        }
        assert_eq!(
            rows,
            BUCKET_ROWS * MEASURED as usize,
            "every bucket read is whole"
        );
        (ALLOCS.load(Ordering::SeqCst) - before) as f64 / MEASURED as f64
    };

    let per_read = measure(&bucket_query);
    eprintln!("{per_read:.1} allocations per read transaction of {BUCKET_ROWS} + {POINTS} rows");
    assert!(
        per_read <= ALLOCS_PER_READ_MAX,
        "{per_read:.1} allocations per read"
    );

    // A projected row is a new row: one allocation each, no more.
    let per_projected = measure(&projected_query);
    eprintln!("{per_projected:.1} allocations per projected read transaction");
    assert!(
        per_projected <= ALLOCS_PER_READ_MAX + BUCKET_ROWS as f64,
        "{per_projected:.1} allocations per projected read"
    );
}
