//! The client reads its own replies: a caller waiting for a reply takes
//! the connection's read turn and reads the socket itself, so a client
//! that serves no push handler runs no thread of its own; callers that
//! share a client get their own replies; a reply that arrives after
//! its request timed out is dropped by whoever reads it; and a client
//! that registers a push handler reads its pushes at once, however it
//! subscribed.

use hipac::ActiveDatabase;
use hipac_common::{Value, ValueType};
use hipac_event::EventSpec;
use hipac_net::proto::{Command, Frame, Reply, PROTOCOL_VERSION};
use hipac_net::{ClientConfig, HipacClient, HipacServer, WireError};
use hipac_object::AttrDef;
use hipac_rules::{Action, ActionOp, RuleDef};
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

/// One test lists the threads started while it runs, and a server that
/// another test starts beside it would add its own: the binary's tests
/// take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn server() -> HipacServer {
    let db = Arc::new(ActiveDatabase::open_in_memory().unwrap());
    HipacServer::bind(db, "127.0.0.1:0").unwrap()
}

/// The names of this process's threads that `before` did not list,
/// from /proc (Linux): the threads started since. Threads that exit
/// meanwhile (another test's, winding down) do not count.
fn threads_since(before: &HashMap<String, String>) -> Vec<String> {
    threads().into_iter().filter(|(tid, _)| !before.contains_key(tid)).map(|(_, name)| name).collect()
}

/// This process's threads: task id to name.
fn threads() -> HashMap<String, String> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|task| {
            let task = task.ok()?;
            let name = std::fs::read_to_string(task.path().join("comm")).ok()?;
            Some((task.file_name().to_string_lossy().into_owned(), name.trim_end().to_owned()))
        })
        .collect()
}

/// A client that serves no push handler starts no thread: its callers
/// read their replies themselves. Its first subscription starts the one
/// reader thread that then reads pushes and replies alike.
#[test]
fn unsubscribed_client_starts_no_thread() {
    let _serial = serial();
    let server = server();
    let before = threads();
    let client = HipacClient::connect(server.local_addr()).unwrap();
    for _ in 0..1_000 {
        let pong = client
            .request(Command::Ping {
                version: PROTOCOL_VERSION,
            })
            .unwrap();
        assert!(matches!(pong, Reply::Pong { .. }), "{pong:?}");
    }
    let started = threads_since(&before);
    assert!(started.is_empty(), "connect and 1 000 requests started {started:?}");
    client.subscribe("h", |_| {}).unwrap();
    client.stats().unwrap();
    // Thread names are cut to 15 bytes.
    let started = threads_since(&before);
    assert_eq!(started, ["hipac-net-clien"], "subscribe starts one reader thread");
    drop(client);
    drop(server);
}

/// Four threads share one unsubscribed client, 500 requests each; every
/// reply reaches the caller that asked for it, whichever caller read it
/// off the socket.
#[test]
fn callers_sharing_a_client_get_their_own_replies() {
    let _serial = serial();
    const THREADS: i64 = 4;
    const PER_THREAD: i64 = 500;
    let server = server();
    let db = server.db();
    db.run_top(|t| {
        db.store()
            .create_class(t, "t", None, vec![AttrDef::new("n", ValueType::Int)])?;
        for n in 0..THREADS * PER_THREAD {
            db.store().insert(t, "t", vec![Value::from(n)])?;
        }
        Ok(())
    })
    .unwrap();
    let client = HipacClient::connect(server.local_addr()).unwrap();
    std::thread::scope(|s| {
        for k in 0..THREADS {
            let client = &client;
            s.spawn(move || {
                let txn = client.begin().unwrap();
                for n in k * PER_THREAD..(k + 1) * PER_THREAD {
                    let params = HashMap::from([("n".to_owned(), Value::from(n))]);
                    let rows = client.query(txn, "from t where n = :n", params).unwrap();
                    assert_eq!(rows.len(), 1, "thread {k}, n = {n}: {rows:?}");
                    assert_eq!(rows[0].values, vec![Value::from(n)], "thread {k} got another reply");
                }
                client.abort(txn).unwrap();
            });
        }
    });
}

/// A request whose reply comes after its deadline (plus the grace)
/// returns `Timeout` and leaves the late reply behind; the next
/// caller's read turn drops it and returns its own. The server is a
/// scripted fake, so the late reply is late for certain.
#[test]
fn a_late_reply_is_dropped_by_the_next_turn() {
    let _serial = serial();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut requests = Vec::new();
        while let Ok(Some(Frame::Request { id, command, .. })) = Frame::read_from(&mut stream) {
            let reply = match &command {
                Command::Ping { version } => Reply::Pong { version: *version },
                Command::DefineEvent { name, .. } if name == "slow" => {
                    // Past the 100 ms deadline and the 500 ms grace.
                    std::thread::sleep(Duration::from_millis(900));
                    Reply::Id(1)
                }
                Command::DefineEvent { .. } => Reply::Id(2),
                other => panic!("unscripted request {other:?}"),
            };
            requests.push(command);
            Frame::Response { id, reply }.write_to(&mut stream).unwrap();
        }
        requests
    });
    let client = HipacClient::connect_with(
        addr,
        ClientConfig {
            default_deadline: Some(Duration::from_millis(100)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    match client.define_event("slow", &[]) {
        Err(WireError::Timeout(_)) => {}
        other => panic!("expected a timeout, got {other:?}"),
    }
    assert_eq!(client.define_event("fast", &[]).unwrap(), 2, "the late reply was taken");
    drop(client);
    let requests = fake.join().unwrap();
    assert_eq!(requests.len(), 3, "one connection, no retry: {requests:?}");
}

/// A handler registered with `on_push` starts the reader thread on the
/// live connection, so a client that then subscribes by a plain
/// `Subscribe` request has its pushes handled as they arrive, with no
/// further request of its own to read them.
#[test]
fn on_push_handles_pushes_without_a_request() {
    let _serial = serial();
    let server = server();
    let db = server.db();
    let rule = RuleDef::new("push-insert")
        .on(EventSpec::db(hipac_event::spec::DbEventKind::Insert, Some("p")))
        .then(Action::single(ActionOp::AppRequest {
            handler: "h".into(),
            request: "inserted".into(),
            args: vec![],
        }));
    db.run_top(|t| {
        db.store()
            .create_class(t, "p", None, vec![AttrDef::new("n", ValueType::Int)])?;
        db.rules().create_rule(t, rule)?;
        Ok(())
    })
    .unwrap();
    let subscriber = HipacClient::connect(server.local_addr()).unwrap();
    let (tx, rx) = mpsc::channel();
    let tx = Mutex::new(tx);
    subscriber.on_push("h", move |event| {
        let _ = tx.lock().unwrap().send(event.request.clone());
    });
    let subscribe = Command::Subscribe {
        handler: "h".to_owned(),
    };
    assert_eq!(subscriber.request(subscribe).unwrap(), Reply::Ok);

    let writer = HipacClient::connect(server.local_addr()).unwrap();
    let txn = writer.begin().unwrap();
    writer.insert(txn, "p", vec![Value::from(1i64)]).unwrap();
    writer.commit(txn).unwrap();
    let handled = rx.recv_timeout(Duration::from_secs(5));
    assert_eq!(handled.as_deref(), Ok("inserted"), "the push waited for a request to read it");
    drop(subscriber);
    drop(writer);
}
