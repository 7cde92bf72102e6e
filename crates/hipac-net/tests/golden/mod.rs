//! The golden samples: one value of every wire and record shape, each
//! paired with the exact bytes its encoder writes, as hex. Shared by
//! `wire_golden` (which checks the bytes) and `proto_hostile` (which
//! corrupts them).
#![allow(dead_code)]

use hipac_common::{ClassId, ObjectId, TxnId, Value, ValueType};
use hipac_event::{DbEventKind, EventSpec, TemporalSpec};
use hipac_net::proto::{
    Command, Frame, PushEvent, ReplMsg, Reply, RequestMeta, WireAttr, WireRow, WireStats,
    PROTOCOL_VERSION,
};
use hipac_object::expr::{BinOp, Expr, UnOp};
use hipac_object::{AttrDef, ClassDef, Query};
use hipac_rules::{Action, ActionOp, CouplingMode, DbAction, RuleDef};
use hipac_storage::StoreOp;
use std::collections::HashMap;

fn args() -> HashMap<String, Value> {
    HashMap::from([
        ("qty".to_owned(), Value::Int(7)),
        ("item".to_owned(), Value::Str("bolt".into())),
        ("n".to_owned(), Value::Float(1.5)),
    ])
}

/// One sample of every command. The bytes are those of a request frame
/// with id `i * 1000` and default metadata (see [`golden_frames`]).
pub fn commands() -> Vec<(Command, &'static str)> {
    vec![
        (Command::Ping { version: PROTOCOL_VERSION }, "0000000700000000000009"),
        (Command::Begin, "0000000700e80700000001"),
        (Command::BeginChild { parent: TxnId(4) }, "0000000800d00f0000000204"),
        (Command::Commit { txn: TxnId(4) }, "0000000800b8170000000304"),
        (Command::Abort { txn: TxnId(9) }, "0000000800a01f0000000409"),
        (
            Command::CreateClass {
                txn: TxnId(1),
                name: "item".into(),
                superclass: Some("thing".into()),
                attrs: vec![
                    WireAttr { name: "qty".into(), ty: 2, nullable: false, indexed: true },
                    WireAttr { name: "note".into(), ty: 4, nullable: true, indexed: false },
                    WireAttr { name: "both".into(), ty: 8, nullable: true, indexed: true },
                ],
            },
            "000000290088270000000501046974656d01057468696e6703037174790202046e6f7465040104626f74680803",
        ),
        (
            Command::CreateClass {
                txn: TxnId(1),
                name: "root".into(),
                superclass: None,
                attrs: vec![],
            },
            "0000000f00f02e000000050104726f6f740000",
        ),
        (
            Command::Insert {
                txn: TxnId(1),
                class: "item".into(),
                values: vec![
                    Value::Null,
                    Value::Bool(false),
                    Value::Bool(true),
                    Value::Int(-3),
                    Value::Float(2.5),
                    Value::Str("héllo".into()),
                    Value::Bytes(vec![0, 255]),
                    Value::Ref(ObjectId(300)),
                    Value::Timestamp(1_000_000),
                    Value::List(vec![Value::Int(1), Value::List(vec![])]),
                ],
            },
            "0000003500d8360000000601046974656d0a0001020305040000000000000440050668c3a96c6c6f060200ff07ac0208c0843d090203020900",
        ),
        (
            Command::Update {
                txn: TxnId(1),
                oid: 12,
                assignments: vec![("qty".into(), Value::Int(5)), ("note".into(), Value::Null)],
            },
            "0000001600c03e00000007010c0203717479030a046e6f746500",
        ),
        (Command::Delete { txn: TxnId(1), oid: 12 }, "0000000900a84600000008010c"),
        (
            Command::Query {
                txn: TxnId(2),
                text: "from item where qty < 5".into(),
                params: args(),
            },
            "0000003d00904e00000009021766726f6d206974656d20776865726520717479203c203503046974656d0504626f6c74016e04000000000000f83f03717479030e",
        ),
        (
            Command::DefineEvent {
                name: "reorder".into(),
                params: vec!["item".into(), "qty".into()],
            },
            "0000001900f8550000000a0772656f7264657202046974656d03717479",
        ),
        (
            Command::SignalEvent {
                name: "reorder".into(),
                args: args(),
                txn: Some(TxnId(3)),
            },
            "0000002e00e05d0000000b0772656f7264657203046974656d0504626f6c74016e04000000000000f83f03717479030e0103",
        ),
        (
            Command::SignalEvent {
                name: "reorder".into(),
                args: HashMap::new(),
                txn: None,
            },
            "0000001100c8650000000b0772656f726465720000",
        ),
        (Command::CreateRule { txn: TxnId(1), rule: vec![1, 2, 3, 255] }, "0000000d00b06d0000000c0104010203ff"),
        (Command::DropRule { txn: TxnId(1), name: "r".into() }, "0000000a0098750000000d010172"),
        (Command::EnableRule { txn: TxnId(1), name: "r".into() }, "0000000a00807d0000000e010172"),
        (Command::DisableRule { txn: TxnId(1), name: "r".into() }, "0000000b00e884010000000f010172"),
        (Command::Subscribe { handler: "reorderer".into() }, "0000001200d08c01000000100972656f726465726572"),
        (Command::Unsubscribe { handler: "reorderer".into() }, "0000001200b89401000000110972656f726465726572"),
        (Command::AckPush { handler: "reorderer".into(), seq: 99 }, "0000001300a09c01000000130972656f72646572657263"),
        (Command::Stats, "000000080088a40100000012"),
        (Command::ReplSubscribe { start_lsn: 512, epoch: 3 }, "0000000b00f0ab0100000014800403"),
        (
            Command::ReplProgress {
                applied_lsn: 512,
                epoch: 3,
                digest: 0xdead_beef,
            },
            "0000001000d8b30100000015800403effdb6f50d",
        ),
        (
            Command::Auth {
                client_id: u64::MAX,
                token: vec![0xde, 0xad, 0xbe, 0xef],
            },
            "0000001700c0bb0100000016ffffffffffffffffff0104deadbeef",
        ),
    ]
}

fn stats() -> WireStats {
    WireStats {
        signals_processed: 1,
        rules_triggered: 2,
        conditions_satisfied: 3,
        actions_executed: 4,
        store_evaluations: 5,
        delta_evaluations: 6,
        cache_hits: 7,
        deferred_txns: 8,
        deferred_firings: 9,
        pool_outstanding: 10,
        separate_errors: 11,
        firings_parallel: 12,
        pool_queue_depth: 13,
        active_connections: 14,
        shed_requests: 15,
        dedup_hits: 16,
        separate_retries: 17,
        separate_dead_letters: 18,
        shed_adaptive: 19,
        journal_replays: 20,
        pushes_redelivered: 21,
        repl_role: 1,
        last_shipped_lsn: 22,
        last_applied_lsn: 23,
        repl_lag_bytes: 24,
        replica_pushes: 25,
        promotions: 26,
        match_index_nodes: 27,
        match_probes: 28,
        match_pruned: 29,
        memo_hits: 30,
        memo_invalidations: 31,
        group_commits: 32,
        group_commit_txns: 33,
        group_commit_largest: 34,
        reactor_shards: 35,
        auth_failures: 36,
        tenants_active: 37,
        tenant_shed_requests: 38,
        pushes_shed: 39,
        subscribers_evicted: 40,
        breaker_trips: 41,
        breaker_resets: 42,
        repl_epoch: 43,
        repl_fence_prev: 44,
        repl_fence_start: 45,
        repl_peers: 46,
        repl_min_peer_applied: 47,
        repl_digest_ok_peers: 48,
        repl_digest_mismatches: 49,
        repl_quorum: 50,
        repl_quorum_ok: 300,
    }
}

/// One sample of every reply. The bytes are those of a response frame
/// with id `i`.
pub fn replies() -> Vec<(Reply, &'static str)> {
    vec![
        (Reply::Ok, "00000003010000"),
        (Reply::Pong { version: PROTOCOL_VERSION }, "0000000401010109"),
        (Reply::Txn(TxnId(42)), "000000040102022a"),
        (Reply::Object(ObjectId(7)), "0000000401030307"),
        (Reply::Id(3), "0000000401040403"),
        (
            Reply::Rows(vec![
                WireRow {
                    oid: 1,
                    class: 2,
                    values: vec![Value::Int(1), Value::Str("x".into())],
                },
                WireRow { oid: 9, class: 2, values: vec![] },
            ]),
            "0000000f010505020102020302050178090200",
        ),
        (Reply::Stats(Box::new(stats())), "000000380106060102030405060708090a0b0c0d0e0f10111213141501161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132ac02"),
        (
            Reply::Err {
                kind: "UnknownClass".into(),
                message: "unknown class: zz".into(),
            },
            "000000220107070c556e6b6e6f776e436c61737311756e6b6e6f776e20636c6173733a207a7a",
        ),
    ]
}

/// One sample of every replication message. The bytes are those of a
/// repl frame.
pub fn repl_msgs() -> Vec<(ReplMsg, &'static str)> {
    vec![
        (
            ReplMsg::Batch {
                prev_lsn: 8,
                start_lsn: 10,
                next_lsn: 99,
                txn: TxnId(7),
                ops: vec![
                    StoreOp::Put {
                        key: b"k".to_vec(),
                        value: b"v".to_vec(),
                    },
                    StoreOp::Delete { key: b"d".to_vec() },
                ],
                epoch: 2,
            },
            "000000100300080a63070200016b017601016402",
        ),
        (ReplMsg::SnapshotBegin { snapshot_lsn: 5 }, "00000003030105"),
        (
            ReplMsg::SnapshotChunk {
                pairs: vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), vec![])],
            },
            "0000000a03020201610131016200",
        ),
        (
            ReplMsg::SnapshotEnd {
                snapshot_lsn: 5,
                epoch: 2,
            },
            "0000000403030502",
        ),
        (
            ReplMsg::Heartbeat {
                durable_lsn: 1234,
                epoch: 2,
            },
            "000000050304d20902",
        ),
    ]
}

/// Every frame sample: the commands, replies and replication messages
/// above in their envelopes, a request with metadata, and a push with
/// a multi-key `args` map.
pub fn golden_frames() -> Vec<(Frame, &'static str)> {
    let mut frames: Vec<(Frame, &'static str)> = Vec::new();
    for (i, (command, hex)) in commands().into_iter().enumerate() {
        let id = i as u64 * 1000;
        frames.push((
            Frame::Request {
                id,
                meta: RequestMeta::default(),
                command,
            },
            hex,
        ));
    }
    for (i, (reply, hex)) in replies().into_iter().enumerate() {
        frames.push((
            Frame::Response {
                id: i as u64,
                reply,
            },
            hex,
        ));
    }
    for (msg, hex) in repl_msgs() {
        frames.push((Frame::Repl(msg), hex));
    }
    frames.push((
        Frame::Request {
            id: 7,
            meta: RequestMeta {
                client_id: u64::MAX,
                seq: 123_456,
                deadline_ms: 2_500,
            },
            command: Command::Begin,
        },
        "000000120007ffffffffffffffffff01c0c407c41301",
    ));
    frames.push((
        Frame::Push(PushEvent {
            seq: 41,
            handler: "h".into(),
            request: "restock".into(),
            args: args(),
        }),
        "000000290229016807726573746f636b03046974656d0504626f6c74016e04000000000000f83f03717479030e",
    ));
    frames
}

fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr::Binary(op, Box::new(l), Box::new(r))
}

/// A predicate that uses every expression form and every operator.
pub fn every_expr() -> Expr {
    use BinOp::*;
    let ops = [Or, And, Eq, Ne, Lt, Le, Gt, Ge, Add, Sub, Mul, Div, Mod];
    let leaves = [
        Expr::Literal(Value::Float(50.0)),
        Expr::Attr("price".into()),
        Expr::OldAttr("price".into()),
        Expr::NewAttr("price".into()),
        Expr::Param("s".into()),
        Expr::Unary(UnOp::Not, Box::new(Expr::Literal(Value::Bool(false)))),
        Expr::Unary(UnOp::Neg, Box::new(Expr::Literal(Value::Int(2)))),
        Expr::Call(
            "abs".into(),
            vec![Expr::Attr("qty".into()), Expr::Literal(Value::Null)],
        ),
    ];
    let mut expr = Expr::Literal(Value::Int(0));
    for (i, op) in ops.into_iter().enumerate() {
        expr = bin(op, expr, leaves[i % leaves.len()].clone());
    }
    expr
}

/// Every event form: each database kind (with and without a class),
/// each temporal form, external, the three binary operators and
/// `Times`.
pub fn every_event() -> EventSpec {
    use DbEventKind::*;
    let kinds = [
        Insert,
        Update,
        Delete,
        CreateClass,
        DropClass,
        TxnBegin,
        TxnCommit,
        TxnAbort,
    ];
    let mut spec = EventSpec::external("tick");
    for (i, kind) in kinds.into_iter().enumerate() {
        let class = if i % 2 == 0 { Some("stock") } else { None };
        spec = spec.or(EventSpec::db(kind, class));
    }
    let temporal = EventSpec::Temporal(TemporalSpec::Absolute { at: 12_345 })
        .then(EventSpec::Temporal(TemporalSpec::Relative {
            baseline: Box::new(EventSpec::on_update("stock")),
            offset: 500,
        }))
        .then(EventSpec::Temporal(TemporalSpec::Periodic {
            period: 60,
            start: None,
        }))
        .then(EventSpec::Temporal(TemporalSpec::Periodic {
            period: 60,
            start: Some(7),
        }));
    EventSpec::Conjunction(Box::new(spec), Box::new(temporal)).times(3)
}

pub fn every_action() -> Action {
    Action::single(ActionOp::Db(DbAction::Insert {
        class: "audit".into(),
        values: vec![Expr::NewAttr("price".into()), Expr::Literal(Value::Int(1))],
    }))
    .then(ActionOp::Db(DbAction::UpdateWhere {
        query: Query::parse("from stock where price < 0.0").unwrap(),
        assignments: vec![("price".into(), Expr::Literal(Value::Float(0.0)))],
    }))
    .then(ActionOp::Db(DbAction::DeleteWhere {
        query: Query::parse("from audit where entry = \"x\"").unwrap(),
    }))
    .then(ActionOp::AppRequest {
        handler: "h".into(),
        request: "r".into(),
        args: vec![("a".into(), Expr::Param("p".into()))],
    })
    .then(ActionOp::SignalEvent {
        name: "e".into(),
        args: vec![],
    })
    .then(ActionOp::ForEachRow {
        query_index: 1,
        ops: vec![ActionOp::AbortWith {
            message: "nested".into(),
        }],
    })
}

/// Rule records: one that uses every expression, event, action and
/// operator form, and one per remaining coupling mode and flag value.
pub fn golden_rules() -> Vec<(RuleDef, &'static str)> {
    let every_form = RuleDef::new("every-form")
        .on(every_event())
        .when(Query {
            class: "stock".into(),
            predicate: every_expr(),
            projection: None,
        })
        .when(Query::parse("from stock select symbol, price").unwrap())
        .then(every_action())
        .ec(CouplingMode::Deferred)
        .ca(CouplingMode::Separate)
        .disabled();
    vec![
        (every_form, "0a65766572792d666f726d01060305030303030303030302047469636b0000010573746f636b0001000002010573746f636b0003000004010573746f636b0005000006010573746f636b0007000404040100b96001010001010573746f636bf40301023c0001023c0107020573746f636b060c060b060a0609060806070606060506040603060206010600000300000400000000000049400105707269636502057072696365030570726963650401730500000105010003040703616273020103717479000000040000000000004940010570726963650205707269636503057072696365040173000573746f636b000201020673796d626f6c05707269636506000561756469740203057072696365000302010573746f636b060401057072696365000400000000000000000001057072696365000400000000000000000205617564697406020105656e747279000501780003016801720101610401700401650005010106066e6573746564010200"),
        (RuleDef::new("derived-event").when(Query::all("stock")), "0d646572697665642d6576656e7400010573746f636b00020000000001"),
        (
            RuleDef::new("immediate")
                .on(EventSpec::on_update("stock"))
                .ec(CouplingMode::Immediate)
                .ca(CouplingMode::Deferred),
            "09696d6d656469617465010001010573746f636b0000000101",
        ),
    ]
}

/// Catalog records: every attribute type, every flag pair, a
/// superclass and a system class.
pub fn golden_classes() -> Vec<(ClassDef, &'static str)> {
    use ValueType::*;
    let types = [Null, Bool, Int, Float, Str, Bytes, Ref, Timestamp, List];
    let attrs = types
        .into_iter()
        .enumerate()
        .map(|(i, ty)| AttrDef {
            name: format!("a{i}"),
            ty,
            nullable: i % 2 == 1,
            indexed: i % 4 >= 2,
        })
        .collect();
    vec![
        (
            ClassDef {
                id: ClassId(17),
                name: "stock".into(),
                superclass: Some(ClassId(3)),
                attrs,
                system: false,
            },
            "110573746f636b01030009026130000000026131010100026132020001026133030101026134040000026135050100026136060001026137070101026138080000",
        ),
        (
            ClassDef {
                id: ClassId(1),
                name: "rule".into(),
                superclass: None,
                attrs: vec![],
                system: true,
            },
            "010472756c65000100",
        ),
    ]
}
