//! Golden bytes for every wire and record format.
//!
//! Each sample in `golden/mod.rs` is paired with the exact bytes its
//! encoder writes, as hex. Every sample must encode to those bytes and decode back to
//! itself. Three of these formats are also on disk (rule records,
//! catalog records, the reply journal; push frames sit in the outbox),
//! so a change here is a wire change *and* a durable-format change:
//! append new tags and samples, never edit an existing line.

mod golden;

use golden::*;
use hipac_common::codec::{self, Wire};
use hipac_common::{TxnId, ValueType};
use hipac_event::{DbEventKind, EventSpec, TemporalSpec};
use hipac_net::proto::{Command, Frame, ReplMsg, Reply};
use hipac_object::expr::{BinOp, Expr, UnOp};
use hipac_object::{ClassDef, Query};
use hipac_rules::codec::{decode_rule, encode_rule};
use hipac_rules::{ActionOp, CouplingMode, DbAction, RuleDef};
use hipac_storage::StoreOp;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Checks every sample of one format; reports all mismatches at once,
/// with the bytes the encoder wrote, before failing.
fn check_all<T: PartialEq + Debug>(
    format: &str,
    samples: &[(T, &str)],
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> T,
) {
    let mut bad = Vec::new();
    for (i, (sample, golden)) in samples.iter().enumerate() {
        let bytes = encode(sample);
        if hex(&bytes) != *golden {
            bad.push(format!("{format}[{i}] {sample:?}\n  wrote {}", hex(&bytes)));
            continue;
        }
        assert_eq!(
            &decode(&bytes),
            sample,
            "{format}[{i}] does not decode to itself"
        );
    }
    assert!(bad.is_empty(), "bytes changed:\n{}", bad.join("\n"));
}

/// A frame decodes from its payload and from a stream, which it reads
/// to the end.
fn decode_frame(wire: &[u8]) -> Frame {
    let from_payload = Frame::decode(&wire[4..]).unwrap();
    let mut cursor = std::io::Cursor::new(wire);
    let from_stream = Frame::read_from(&mut cursor).unwrap().unwrap();
    assert_eq!(cursor.position() as usize, wire.len());
    assert_eq!(from_payload, from_stream);
    from_payload
}

#[test]
fn every_frame_has_its_golden_bytes() {
    check_all("frame", &golden_frames(), Frame::encode, decode_frame);
}

/// The reply journal persists replies without a frame envelope.
#[test]
fn journal_records_have_their_golden_bytes() {
    let records = vec![
        (Reply::Ok, "00"),
        (Reply::Txn(TxnId(9)), "0209"),
        (
            Reply::Err {
                kind: "UnknownTxn".into(),
                message: "gone".into(),
            },
            "070a556e6b6e6f776e54786e04676f6e65",
        ),
    ];
    check_all("journal", &records, Reply::to_bytes, |b| {
        Reply::from_bytes(b).unwrap()
    });
}

#[test]
fn every_rule_record_has_its_golden_bytes() {
    check_all("rule", &golden_rules(), encode_rule, |b| {
        decode_rule(b).unwrap()
    });
}

/// A resolved slot persists as its attribute name: `Slot`, `OldSlot`
/// and `NewSlot` write the bytes of `Attr`, `OldAttr` and `NewAttr`.
#[test]
fn resolved_slots_persist_as_their_names() {
    let rule = |e: Expr| {
        encode_rule(&RuleDef::new("r").when(Query {
            class: "c".into(),
            predicate: e,
            projection: None,
        }))
    };
    let pairs = [
        (Expr::Slot(3, "a".into()), Expr::Attr("a".into())),
        (Expr::OldSlot(3, "a".into()), Expr::OldAttr("a".into())),
        (Expr::NewSlot(3, "a".into()), Expr::NewAttr("a".into())),
    ];
    for (slot, name) in pairs {
        assert_eq!(rule(slot), rule(name));
    }
}

#[test]
fn every_class_record_has_its_golden_bytes() {
    check_all("class", &golden_classes(), ClassDef::encode, |b| {
        ClassDef::decode(b).unwrap()
    });
}

/// The first tag of `v`'s encoding: its own variant tag.
fn tag<T: Wire>(v: &T) -> u8 {
    codec::to_bytes(v)[0]
}

/// The tags each tagged type's samples use, by type name.
#[derive(Default)]
struct Seen(BTreeMap<&'static str, BTreeSet<u8>>);

impl Seen {
    fn add<T: Wire>(&mut self, ty: &'static str, v: &T) {
        self.0.entry(ty).or_default().insert(tag(v));
    }

    fn expr(&mut self, e: &Expr) {
        self.add("Expr", e);
        match e {
            Expr::Unary(op, x) => {
                self.add("UnOp", op);
                self.expr(x);
            }
            Expr::Binary(op, l, r) => {
                self.add("BinOp", op);
                self.expr(l);
                self.expr(r);
            }
            Expr::Call(_, args) => args.iter().for_each(|a| self.expr(a)),
            _ => {}
        }
    }

    fn event(&mut self, e: &EventSpec) {
        self.add("EventSpec", e);
        match e {
            EventSpec::Database { kind, .. } => self.add("DbEventKind", kind),
            EventSpec::Temporal(t) => {
                self.add("TemporalSpec", t);
                if let TemporalSpec::Relative { baseline, .. } = t {
                    self.event(baseline);
                }
            }
            EventSpec::Disjunction(l, r)
            | EventSpec::Sequence(l, r)
            | EventSpec::Conjunction(l, r) => {
                self.event(l);
                self.event(r);
            }
            EventSpec::Times(_, inner) => self.event(inner),
            EventSpec::External { .. } => {}
        }
    }

    fn args(&mut self, args: &[(String, Expr)]) {
        args.iter().for_each(|(_, e)| self.expr(e));
    }

    /// A database op's tag is its `DbAction`'s (see `hipac_rules::codec`).
    fn op(&mut self, op: &ActionOp) {
        match op {
            ActionOp::Db(d) => {
                self.add("DbAction", d);
                match d {
                    DbAction::Insert { values, .. } => values.iter().for_each(|e| self.expr(e)),
                    DbAction::UpdateWhere { query, assignments } => {
                        self.expr(&query.predicate);
                        self.args(assignments);
                    }
                    DbAction::DeleteWhere { query } => self.expr(&query.predicate),
                }
            }
            other => {
                self.add("ActionOp", other);
                match other {
                    ActionOp::AppRequest { args, .. } | ActionOp::SignalEvent { args, .. } => {
                        self.args(args)
                    }
                    ActionOp::ForEachRow { ops, .. } => ops.iter().for_each(|o| self.op(o)),
                    _ => {}
                }
            }
        }
    }
}

/// Every tag that a `wire_enum!` declares (and `Expr`'s hand-written
/// table) has a golden sample, so a variant added without one fails
/// here.
#[test]
fn every_declared_tag_has_a_golden_sample() {
    let mut seen = Seen::default();
    for (frame, _) in golden_frames() {
        seen.add("Frame", &frame);
    }
    for (command, _) in commands() {
        seen.add("Command", &command);
    }
    for (reply, _) in replies() {
        seen.add("Reply", &reply);
    }
    for (msg, _) in repl_msgs() {
        seen.add("ReplMsg", &msg);
        if let ReplMsg::Batch { ops, .. } = &msg {
            ops.iter().for_each(|op| seen.add("StoreOp", op));
        }
    }
    for (rule, _) in golden_rules() {
        if let Some(event) = &rule.event {
            seen.event(event);
        }
        rule.condition.iter().for_each(|q| seen.expr(&q.predicate));
        rule.action.ops.iter().for_each(|op| seen.op(op));
        seen.add("CouplingMode", &rule.ec_coupling);
        seen.add("CouplingMode", &rule.ca_coupling);
    }
    for (class, _) in golden_classes() {
        class
            .attrs
            .iter()
            .for_each(|a| seen.add("ValueType", &a.ty));
    }
    let declared: [(&str, &[(u8, &str)]); 15] = [
        ("Frame", Frame::WIRE_TAGS),
        ("Command", Command::WIRE_TAGS),
        ("Reply", Reply::WIRE_TAGS),
        ("ReplMsg", ReplMsg::WIRE_TAGS),
        ("StoreOp", StoreOp::WIRE_TAGS),
        ("Expr", Expr::WIRE_TAGS),
        ("UnOp", UnOp::WIRE_TAGS),
        ("BinOp", BinOp::WIRE_TAGS),
        ("EventSpec", EventSpec::WIRE_TAGS),
        ("TemporalSpec", TemporalSpec::WIRE_TAGS),
        ("DbEventKind", DbEventKind::WIRE_TAGS),
        ("ActionOp", ActionOp::WIRE_TAGS),
        ("DbAction", DbAction::WIRE_TAGS),
        ("CouplingMode", CouplingMode::WIRE_TAGS),
        ("ValueType", ValueType::WIRE_TAGS),
    ];
    let mut missing = Vec::new();
    for (ty, tags) in declared {
        for (tag, variant) in tags {
            if !seen.0.get(ty).is_some_and(|s| s.contains(tag)) {
                missing.push(format!("{ty}::{variant} (tag {tag})"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "no golden sample for: {}",
        missing.join(", ")
    );
}
