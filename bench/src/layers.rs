//! Per-layer probes: each layer measured on its own, from outside,
//! through its public functions.
//!
//! The probes are the rungs of the *ladder*: the same one-row
//! transaction executed at successive depths — lock manager, object
//! manager, engine in memory, engine on a durable store, engine behind
//! the wire, engine with rules attached — so that the difference
//! between two rungs is the layer between them. They do not depend on the
//! workload, but the result line of a traced run must hold every
//! per-layer metric, so every traced run takes them — first, while the
//! process holds nothing else — on small fixed populations; the
//! workload's own counters are added to them by the caller.

use crate::harness::{self, e, Cfg, Res};
use crate::stats::{median, percentile};
use crate::{push_fanout, rule_wall, sys};
use hipac::prelude::*;
use hipac_net::proto::{Command, Frame, RequestMeta};
use hipac_net::{HipacClient, HipacServer};
use hipac_object::LockKey;
use hipac_repl::ReplicaNode;
use hipac_storage::{DurableStore, StoreOp};
use hipac_txn::LockMode;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Layers = BTreeMap<&'static str, f64>;

const ROWS: usize = 1_000;
const BUCKET: usize = 50;

/// Batches per probe; the median over them is reported.
const BATCHES: usize = 9;

/// Median over [`BATCHES`] of the mean time of one call in a batch of
/// `per_batch` (fewer under `--smoke`), microseconds.
fn time_us(cfg: &Cfg, per_batch: usize, mut f: impl FnMut(usize) -> Res<()>) -> Res<f64> {
    let per_batch = cfg.scaled(per_batch).max(10);
    let mut means = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            f(i)?;
            i += 1;
        }
        means.push(t0.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
    }
    Ok(median(&means))
}

fn stock_class(db: &ActiveDatabase) -> Res<Vec<ObjectId>> {
    db.run_top(|t| {
        db.store().create_class(
            t,
            "stock",
            None,
            vec![
                AttrDef::new("symbol", ValueType::Str).indexed(),
                AttrDef::new("bucket", ValueType::Int).indexed(),
                AttrDef::new("n", ValueType::Int),
            ],
        )?;
        (0..ROWS)
            .map(|i| {
                db.store().insert(
                    t,
                    "stock",
                    vec![
                        format!("P{i:04}").into(),
                        ((i / BUCKET) as i64).into(),
                        0i64.into(),
                    ],
                )
            })
            .collect()
    })
    .map_err(e)
}

fn update_txn(db: &ActiveDatabase, oid: ObjectId, n: usize) -> Res<()> {
    db.run_top(|t| db.store().update(t, oid, &[("n", (n as i64).into())]))
        .map_err(e)
}

/// `hipac-net::proto`: encode and decode of the update request frame.
fn proto(cfg: &Cfg, out: &mut Layers) -> Res<()> {
    let frame = Frame::Request {
        id: 7,
        meta: RequestMeta {
            client_id: 1,
            seq: 99,
            deadline_ms: 0,
        },
        command: Command::Update {
            txn: TxnId(12),
            oid: 3456,
            assignments: vec![
                ("price".into(), 51.25.into()),
                ("n".into(), 77i64.into()),
                ("stamp".into(), 123456789i64.into()),
            ],
        },
    };
    let bytes = frame.encode();
    out.insert(
        "net.proto_encode_ns",
        1e3 * time_us(cfg, 20_000, |_| {
            std::hint::black_box(std::hint::black_box(&frame).encode());
            Ok(())
        })?,
    );
    out.insert(
        "net.proto_decode_ns",
        1e3 * time_us(cfg, 20_000, |_| {
            std::hint::black_box(Frame::decode(std::hint::black_box(&bytes[4..])).map_err(e)?);
            Ok(())
        })?,
    );
    Ok(())
}

/// `hipac-txn`, `hipac-object`, `hipac-event` and the engine facade, in
/// memory.
fn in_memory(cfg: &Cfg, out: &mut Layers) -> Res<()> {
    let db = harness::engine(harness::ENGINE_WORKERS, None)?;
    let oids = stock_class(&db)?;
    out.insert(
        "db.txn_mem_us",
        time_us(cfg, 2_000, |i| update_txn(&db, oids[i % ROWS], i))?,
    );
    out.insert(
        "txn.begin_commit_us",
        time_us(cfg, 5_000, |_| {
            let t = db.begin();
            db.commit(t).map_err(e)
        })?,
    );
    let parent = db.begin();
    out.insert(
        "txn.child_us",
        time_us(cfg, 5_000, |_| {
            let c = db.begin_child(parent).map_err(e)?;
            db.commit(c).map_err(e)
        })?,
    );
    db.commit(parent).map_err(e)?;

    // Object-manager calls inside one open transaction each, so that
    // begin/commit are not in the number.
    let in_txn = |per: usize, f: &dyn Fn(TxnId, usize) -> hipac::Result<()>| -> Res<f64> {
        let per = cfg.scaled(per).max(10);
        let mut means = Vec::new();
        for batch in 0..BATCHES {
            let t = db.begin();
            let t0 = Instant::now();
            for i in 0..per {
                f(t, batch * per + i).map_err(e)?;
            }
            means.push(t0.elapsed().as_secs_f64() * 1e6 / per as f64);
            db.commit(t).map_err(e)?;
        }
        Ok(median(&means))
    };
    let lock_us = in_txn(1_000, &|t, i| {
        db.store().locks().acquire(
            t,
            LockKey::Object(ObjectId(1_000_000 + i as u64)),
            LockMode::Read,
        )
    })?;
    out.insert("txn.lock_acquire_ns", 1e3 * lock_us);
    let us = in_txn(ROWS, &|t, i| {
        db.store()
            .update(t, oids[i % ROWS], &[("n", (i as i64).into())])
    })?;
    out.insert("object.update_us", us);
    let us = in_txn(1_000, &|t, i| {
        db.store()
            .insert(
                t,
                "stock",
                vec![format!("Q{i:06}").into(), (-1i64).into(), 0i64.into()],
            )
            .map(|_| ())
    })?;
    out.insert("object.insert_us", us);
    let us = in_txn(ROWS, &|t, i| db.store().get(t, oids[i % ROWS]).map(|_| ()))?;
    out.insert("object.query_point_us", us);
    let by_bucket = Query::parse("from stock where bucket = :b").map_err(e)?;
    let us = in_txn(100, &|t, i| {
        let params = HashMap::from([("b".to_string(), Value::from((i % (ROWS / BUCKET)) as i64))]);
        db.store().query(t, &by_bucket, Some(&params)).map(|_| ())
    })?;
    out.insert("object.query_range_us", us);

    db.define_event("tick", &["n"]).map_err(e)?;
    out.insert(
        "event.signal_us",
        time_us(cfg, 5_000, |i| {
            db.signal_event(
                "tick",
                HashMap::from([("n".to_string(), Value::from(i as i64))]),
                None,
            )
            .map_err(e)
        })?,
    );
    Ok(())
}

/// `hipac-storage` on its own: a bare store, one and two committers.
fn storage(cfg: &Cfg, out: &mut Layers) -> Res<()> {
    let dir = cfg.scratch("probe-store")?;
    let store = Arc::new(DurableStore::open(dir.path()).map_err(e)?);
    store.set_group_commit(true, Duration::ZERO);
    let put = |k: usize| StoreOp::Put {
        key: format!("o{:08}", k % ROWS).into_bytes(),
        value: vec![0xA5; 100],
    };
    out.insert(
        "storage.commit_us",
        time_us(cfg, 200, |i| {
            store.commit(TxnId(1 + i as u64), &[put(i)]).map_err(e)
        })?,
    );
    let both: Vec<Res<f64>> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2usize)
            .map(|w| {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    time_us(cfg, 200, |i| {
                        store
                            .commit(TxnId(10_000 * (w as u64 + 1) + i as u64), &[put(2 * i + w)])
                            .map_err(e)
                    })
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("committer panicked"))
            .collect()
    });
    let both: Vec<f64> = both.into_iter().collect::<Res<_>>()?;
    out.insert("storage.commit_2t_us", median(&both));

    // The replica's apply path: batch and watermark as one commit.
    let rdir = cfg.scratch("probe-replica-store")?;
    let rstore = DurableStore::open(rdir.path()).map_err(e)?;
    out.insert(
        "repl.apply_us",
        time_us(cfg, 200, |i| {
            rstore
                .apply_replicated(&[put(i)], i as u64, i as u64 + 1)
                .map_err(e)
        })?,
    );
    Ok(())
}

/// The same transaction through the engine on a durable store, then
/// through the server, with a replica following.
fn wire(cfg: &Cfg, out: &mut Layers) -> Res<()> {
    let pdir = cfg.scratch("probe-primary")?;
    let rdir = cfg.scratch("probe-replica")?;
    let db = harness::engine(harness::ENGINE_WORKERS, Some(pdir.path()))?;
    let oids = stock_class(&db)?;
    out.insert(
        "db.txn_us",
        time_us(cfg, 200, |i| update_txn(&db, oids[i % ROWS], i))?,
    );

    let mut server =
        HipacServer::bind_with(Arc::clone(&db), "127.0.0.1:0", harness::server_config())
            .map_err(e)?;
    let client = HipacClient::connect(server.local_addr()).map_err(e)?;
    out.insert(
        "net.rtt_us",
        time_us(cfg, 500, |_| client.stats().map(|_| ()).map_err(e))?,
    );
    let wire_txn = |i: usize| -> Res<()> {
        let t = client.begin().map_err(e)?;
        client
            .update(
                t,
                oids[i % ROWS].raw(),
                vec![("n".into(), (i as i64).into())],
            )
            .map_err(e)?;
        client.commit(t).map_err(e)
    };
    out.insert("net.txn_us", time_us(cfg, 200, wire_txn)?);

    let store = Arc::clone(db.durable_store().expect("durable"));
    let replica = ReplicaNode::start(rdir.path(), server.local_addr().to_string(), "127.0.0.1:0")
        .map_err(e)?;
    // Spins rather than sleeps: the lag it times is about a millisecond.
    let caught_up = |replica: &ReplicaNode| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while replica.applied_lsn() < store.durable_lsn() {
            if Instant::now() > deadline {
                return Err("probe replica did not catch up".to_string());
            }
            std::thread::yield_now();
        }
        Ok(())
    };
    caught_up(&replica)?;
    let mut lag = Vec::new();
    for i in 0..cfg.scaled(300).max(10) {
        wire_txn(i)?;
        let t0 = Instant::now();
        caught_up(&replica)?;
        lag.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out.insert("repl.lag_p50_us", percentile(&lag, 0.5));
    let view = replica.view();
    out.insert(
        "repl.view_query_us",
        time_us(cfg, 100, |i| {
            view.query(
                &format!("from stock where symbol = \"P{:04}\"", i % ROWS),
                &HashMap::new(),
            )
            .map(|_| ())
            .map_err(e)
        })?,
    );
    replica.shutdown();

    // A replica whose watermark the primary has checkpointed away is
    // bootstrapped from a snapshot.
    store.checkpoint().map_err(e)?;
    let fresh_dir = cfg.scratch("probe-replica-fresh")?;
    let t0 = Instant::now();
    let fresh = ReplicaNode::start(
        fresh_dir.path(),
        server.local_addr().to_string(),
        "127.0.0.1:0",
    )
    .map_err(e)?;
    caught_up(&fresh)?;
    out.insert("repl.snapshot_install_ms", t0.elapsed().as_secs_f64() * 1e3);
    fresh.shutdown();
    drop(client);
    server.shutdown();
    Ok(())
}

/// `hipac-rules`: a small wall of the `rule_wall` shape, and one update
/// at four depths — no rules on the event; rules, all pruned by the
/// network; eight candidates, no condition true; eight candidates, two
/// true and fired.
fn rules(cfg: &Cfg, out: &mut Layers) -> Res<()> {
    let small_wall = cfg.scaled(8_000).max(80);
    let tr = Arc::new(crate::trace::Tracer::off());
    let t0 = Instant::now();
    let w = rule_wall::setup_sized(cfg, &tr, small_wall)?;
    out.insert(
        "rules.create_us",
        t0.elapsed().as_secs_f64() * 1e6 / small_wall as f64,
    );
    let db = &w.db;
    let (plain, unwatched) = db
        .run_top(|t| {
            db.store()
                .create_class(t, "plain", None, vec![AttrDef::new("n", ValueType::Int)])?;
            let plain = db.store().insert(t, "plain", vec![0i64.into()])?;
            let unwatched = db.store().insert(
                t,
                "stock",
                vec!["nobody".into(), (-1i64).into(), (-1i64).into(), 0i64.into()],
            )?;
            Ok((plain, unwatched))
        })
        .map_err(e)?;
    let rows = w.oids.len();
    let depth = |oid: &dyn Fn(usize) -> ObjectId, level: &dyn Fn(usize) -> Option<i64>| {
        time_us(cfg, 1_000, |i| {
            db.run_top(|t| match level(i) {
                Some(l) => {
                    db.store()
                        .update(t, oid(i), &[("level", l.into()), ("n", (i as i64).into())])
                }
                None => db.store().update(t, oid(i), &[("n", (i as i64).into())]),
            })
            .map_err(e)
        })
    };
    let no_rules = depth(&|_| plain, &|_| None)?;
    let all_pruned = depth(&|_| unwatched, &|i| Some(i as i64 % 4))?;
    let none_true = depth(&|i| w.oids[i % rows], &|_| Some(99))?;
    let two_fire = depth(&|i| w.oids[i % rows], &|i| Some(i as i64 % 4))?;
    db.quiesce();
    out.insert("rules.probe_us", (all_pruned - no_rules).max(0.0));
    out.insert(
        "rules.condition_us",
        ((none_true - all_pruned) / 8.0).max(0.0),
    );
    out.insert("rules.fire_us", ((two_fire - none_true) / 2.0).max(0.0));
    Ok(())
}

/// `hipac-net` push path: one subscriber, and the slope to a thousand.
fn fanout(cfg: &Cfg, out: &mut Layers) -> Res<()> {
    let many = cfg.scaled(1_000).max(2);
    let one = push_fanout::reaction_p50_us(cfg, 1, cfg.scaled(200).max(20) as u64)?;
    let all = push_fanout::reaction_p50_us(cfg, many, cfg.scaled(100).max(20) as u64)?;
    out.insert("net.push_us", one);
    out.insert(
        "net.fanout_per_sub_us",
        ((all - one) / (many - 1) as f64).max(0.0),
    );
    Ok(())
}

pub fn probes(cfg: &Cfg) -> Res<Layers> {
    let mut out = Layers::new();
    out.insert("bench.clock_ns", sys::clock_ns());
    proto(cfg, &mut out)?;
    in_memory(cfg, &mut out)?;
    storage(cfg, &mut out)?;
    wire(cfg, &mut out)?;
    rules(cfg, &mut out)?;
    fanout(cfg, &mut out)?;
    Ok(out)
}
