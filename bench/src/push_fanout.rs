//! `push_fanout` — over the wire, durable: one signaller, one rule, a
//! thousand subscribers.
//!
//! The signaller connection commits inserts; an immediate rule turns
//! each into an application request to handler `watch`, which the
//! server persists in its outbox and writes to every subscribed
//! socket. The 1 000 subscribers are passive raw sockets drained by one
//! poller thread — they are the input dimension, not load generators.
//! The last subscriber acks every sequence number so the outbox stays
//! bounded. The reaction time is stamp → receipt by the *last*
//! subscriber, which has waited for the whole fan-out.
//!
//! Why it exists: per-subscriber delivery cost (outbox persist, encode,
//! sweep, socket write) dominates and matching/commit are negligible.
//! It is the only workload where a fan-out redesign can show;
//! `saa_wire`, with one subscriber, is its bypass.

use crate::harness::{self, drive, e, int_arg, timed_setup, wait_until, Cfg, Outcome, Res};
use crate::stats::bucket_by_ordinal;
use crate::sys::{self, now_ns, ScratchDir};
use crate::trace::Tracer;
use hipac::prelude::*;
use hipac_net::proto::{Command, Frame, RequestMeta};
use hipac_net::reactor::Poller;
use hipac_net::{HipacClient, HipacServer, Reply, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SUBSCRIBERS: usize = 1_000;
const SEGMENT_OPS: u64 = 150;
/// Transactions per second at the seed commit on the reference runner,
/// frozen: it turns `--seconds` into a fixed amount of work.
const NOMINAL_TXN_PER_S: f64 = 210.0;
const WARM_OPS: u64 = 300;
const HANDLER: &str = "watch";

/// What the poller thread has seen.
#[derive(Default)]
struct Seen {
    /// `(insert ordinal, stamp → receipt µs)` at the last subscriber.
    last: Mutex<Vec<(u64, f64)>>,
    /// Pushes received, summed over all subscribers.
    received: AtomicU64,
    /// Sequence numbers that were not the subscriber's next expected.
    out_of_sequence: AtomicU64,
}

struct World {
    seen: Arc<Seen>,
    stop: Arc<AtomicBool>,
    drain: Option<std::thread::JoinHandle<()>>,
    subscribers: usize,
    signaller: HipacClient,
    server: HipacServer,
    db: Arc<ActiveDatabase>,
    _dir: ScratchDir,
}

impl Drop for World {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
        self.server.shutdown();
    }
}

/// One passive subscriber: its socket and the bytes of a frame not yet
/// complete.
struct Sub {
    stream: TcpStream,
    buf: Vec<u8>,
    next_seq: u64,
}

fn subscribe(addr: std::net::SocketAddr, id: u64) -> Res<TcpStream> {
    let mut conn = TcpStream::connect(addr).map_err(e)?;
    conn.set_nodelay(true).map_err(e)?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(e)?;
    Frame::Request {
        id,
        meta: RequestMeta::default(),
        command: Command::Subscribe {
            handler: HANDLER.into(),
        },
    }
    .write_to(&mut conn)
    .map_err(e)?;
    match Frame::read_from(&mut conn).map_err(e)? {
        Some(Frame::Response {
            reply: Reply::Ok, ..
        }) => Ok(conn),
        other => Err(format!(
            "subscriber {id}: unexpected answer to Subscribe: {other:?}"
        )),
    }
}

/// Read what the socket holds and handle every complete frame in it.
fn drain_one(sub: &mut Sub, is_last: bool, seen: &Seen, tr: &Tracer) -> std::io::Result<()> {
    let mut chunk = [0u8; 4096];
    loop {
        match sub.stream.read(&mut chunk) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => sub.buf.extend_from_slice(&chunk[..n]),
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    let now = now_ns();
    let mut at = 0;
    while sub.buf.len() - at >= 4 {
        let len = u32::from_be_bytes(sub.buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        if sub.buf.len() - at - 4 < len {
            break;
        }
        // Responses to the acks come back on the last subscriber's
        // socket; only pushes count.
        if let Ok(Frame::Push(push)) = Frame::decode(&sub.buf[at + 4..at + 4 + len]) {
            seen.received.fetch_add(1, Ordering::Relaxed);
            if push.seq != sub.next_seq {
                seen.out_of_sequence.fetch_add(1, Ordering::Relaxed);
            }
            sub.next_seq = push.seq + 1;
            if is_last {
                let (n, stamp) = (
                    int_arg(&push.args, "n") as u64,
                    int_arg(&push.args, "stamp"),
                );
                seen.last
                    .lock()
                    .expect("seen")
                    .push((n, (now - stamp) as f64 / 1e3));
                tr.reaction(n, "react.last_subscriber", stamp / 1_000, now / 1_000);
                let ack = Frame::Request {
                    id: 0,
                    meta: RequestMeta::default(),
                    command: Command::AckPush {
                        handler: HANDLER.into(),
                        seq: push.seq,
                    },
                };
                sub.stream.write_all(&ack.encode())?;
            }
        }
        at += 4 + len;
    }
    sub.buf.drain(..at);
    Ok(())
}

fn setup(cfg: &Cfg, tr: &Arc<Tracer>, subscribers: usize) -> Res<World> {
    // Both socket ends live in this process and the server clones a
    // writer per connection.
    let need = 3 * subscribers as u64 + 128;
    if sys::fd_limit() < need {
        return Err(format!(
            "open-file limit {} is below the {need} this workload needs",
            sys::fd_limit()
        ));
    }
    let dir = cfg.scratch("fanout")?;
    let db = harness::engine(harness::ENGINE_WORKERS, Some(dir.path()))?;
    db.run_top(|t| {
        db.store().create_class(
            t,
            "sig",
            None,
            vec![
                AttrDef::new("n", ValueType::Int),
                AttrDef::new("stamp", ValueType::Int),
            ],
        )?;
        db.rules().create_rule(
            t,
            RuleDef::new("sig-push")
                .on(EventSpec::db(DbEventKind::Insert, Some("sig")))
                .then(Action::single(ActionOp::AppRequest {
                    handler: HANDLER.into(),
                    request: "notify".into(),
                    args: vec![
                        ("n".into(), Expr::NewAttr("n".into())),
                        ("stamp".into(), Expr::NewAttr("stamp".into())),
                    ],
                })),
        )?;
        Ok(())
    })
    .map_err(e)?;
    let server = HipacServer::bind_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            max_pending: subscribers + 64,
            // Passive subscribers never send a request.
            idle_timeout: Duration::from_secs(3600),
            ..harness::server_config()
        },
    )
    .map_err(e)?;
    let addr = server.local_addr();

    let poller = Poller::new().map_err(e)?;
    let mut subs = Vec::with_capacity(subscribers);
    for i in 0..subscribers {
        let stream = subscribe(addr, i as u64 + 1)?;
        stream.set_nonblocking(true).map_err(e)?;
        poller.add(stream.as_raw_fd(), i as u64).map_err(e)?;
        subs.push(Sub {
            stream,
            buf: Vec::new(),
            next_seq: 1,
        });
    }
    let seen = Arc::new(Seen::default());
    let stop = Arc::new(AtomicBool::new(false));
    let drain = {
        let (seen, stop, tr) = (Arc::clone(&seen), Arc::clone(&stop), Arc::clone(tr));
        std::thread::spawn(move || {
            let mut events = Vec::new();
            let last = subs.len() - 1;
            while !stop.load(Ordering::SeqCst) {
                events.clear();
                if poller.wait(&mut events, Duration::from_millis(20)).is_err() {
                    break;
                }
                for &(token, _) in &events {
                    let i = token as usize;
                    if drain_one(&mut subs[i], i == last, &seen, &tr).is_err() {
                        // A closed subscriber shows up as missing pushes
                        // in the audit.
                        let _ = poller.del(subs[i].stream.as_raw_fd());
                    }
                }
            }
        })
    };
    let signaller = HipacClient::connect(addr).map_err(e)?;
    Ok(World {
        seen,
        stop,
        drain: Some(drain),
        subscribers,
        signaller,
        server,
        db,
        _dir: dir,
    })
}

/// One insert, committed; its push goes out inside the insert.
fn signal(w: &World, tr: &Tracer, n: u64) -> Res<()> {
    let root = tr.open(n, 0, "push_fanout.txn");
    let t = {
        let _s = tr.open(n, root.id(), "net.begin");
        w.signaller.begin().map_err(e)?
    };
    {
        let _s = tr.open(n, root.id(), "net.insert");
        w.signaller
            .insert(t, "sig", vec![(n as i64).into(), now_ns().into()])
            .map_err(e)?;
    }
    let _s = tr.open(n, root.id(), "net.commit");
    w.signaller.commit(t).map_err(e)
}

/// Median stamp → last-subscriber time over `ops` signals with the given
/// number of subscribers: the two ends of the per-subscriber slope.
pub fn reaction_p50_us(cfg: &Cfg, subscribers: usize, ops: u64) -> Res<f64> {
    let tr = Arc::new(Tracer::off());
    let w = setup(cfg, &tr, subscribers)?;
    for n in 0..ops {
        signal(&w, &tr, n)?;
    }
    wait_until(Duration::from_secs(10), || {
        w.seen.last.lock().expect("seen").len() as u64 >= ops
    });
    let us: Vec<f64> = w
        .seen
        .last
        .lock()
        .expect("seen")
        .iter()
        .skip(ops as usize / 5)
        .map(|&(_, us)| us)
        .collect();
    Ok(crate::stats::percentile(&us, 0.5))
}

pub fn run(cfg: &Cfg, tr: &Arc<Tracer>) -> Res<Outcome> {
    let mut out = Outcome::default();
    let warm_ops = cfg.scaled_ops(WARM_OPS);
    let w = timed_setup(&mut out, || {
        let w = setup(cfg, tr, cfg.scaled(SUBSCRIBERS))?;
        (0..warm_ops).try_for_each(|n| signal(&w, tr, n))?;
        Ok(w)
    })?;
    if cfg.setup_only {
        return Ok(out);
    }
    out.sizes = vec![
        ("subscribers", w.subscribers as u64),
        ("segment_ops", cfg.scaled_ops(SEGMENT_OPS)),
        ("warm_ops", warm_ops),
    ];
    let store = Arc::clone(w.db.durable_store().expect("durable"));
    let (lsn0, gc0) = (store.durable_lsn(), store.group_commit_stats());
    let engine0 = w.db.stats();

    let driven = drive(
        cfg.seconds,
        NOMINAL_TXN_PER_S,
        warm_ops,
        cfg.scaled_ops(SEGMENT_OPS),
        |n| signal(&w, tr, n),
        |_| Ok(()),
    );
    let total = driven.end();
    let expected = total * w.subscribers as u64;
    wait_until(Duration::from_secs(20), || {
        w.seen.received.load(Ordering::Relaxed) >= expected && w.server.unacked_pushes() == 0
    });

    out.txn = driven.segments.clone();
    let last = w.seen.last.lock().expect("seen").clone();
    out.observe = bucket_by_ordinal(&last, driven.first, &driven.bounds);
    out.wall_s = driven.wall_s;
    out.attempted = total + expected;
    out.failed = driven.failed;

    let received = w.seen.received.load(Ordering::Relaxed);
    out.audit(received == expected, || {
        format!("{received} pushes received, {expected} expected")
    });
    let gaps = w.seen.out_of_sequence.load(Ordering::Relaxed);
    out.audit(gaps == 0, || {
        format!("{gaps} pushes arrived out of sequence (lost or duplicated)")
    });
    let rows =
        w.db.run_top(|t| w.db.store().query(t, &Query::all("sig"), None))
            .map_err(e)?;
    let mut ns: Vec<i64> = rows
        .iter()
        .filter_map(|r| r.values[0].as_int().ok())
        .collect();
    ns.sort_unstable();
    out.audit(ns == (0..total as i64).collect::<Vec<_>>(), || {
        format!("{} committed signals, model says {total}", ns.len())
    });

    let gc = store.group_commit_stats();
    let ops = ((total - driven.first) as f64).max(1.0);
    out.layer.insert(
        "storage.wal_bytes_per_txn",
        (store.durable_lsn() - lsn0) as f64 / ops,
    );
    out.layer.insert(
        "storage.mean_cohort",
        (gc.grouped_txns - gc0.grouped_txns) as f64 / (gc.groups - gc0.groups).max(1) as f64,
    );
    harness::server_counters(&mut out, &w.server);
    harness::rule_counters(&mut out, &engine0, &w.db.stats(), total - driven.first);
    Ok(out)
}
