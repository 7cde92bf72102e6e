//! Durable serialization of rule definitions.
//!
//! Rules are database objects (§2 of the paper), so they persist with
//! the database: the Rule Manager stores committed rule definitions in
//! the durable store under their own key prefix and reloads them on
//! open, and `Command::CreateRule` carries the same bytes over the wire.
//! The record is declared below with the workspace codec's
//! `wire_struct!`/`wire_enum!`; its expressions, queries and event
//! specifications declare their own encodings beside their types (in
//! `hipac-object` and `hipac-event`). Like the other on-disk formats,
//! tags are append-only.

use crate::rule::{Action, ActionOp, CouplingMode, DbAction, RuleDef};
use hipac_common::{codec, wire_enum, wire_struct, Result};

wire_enum! {
    CouplingMode {
        0 => Immediate,
        1 => Deferred,
        2 => Separate,
    }
}

wire_enum! {
    DbAction {
        0 => Insert { class, values },
        1 => UpdateWhere { query, assignments },
        2 => DeleteWhere { query },
    }
}

// A database operation writes its `DbAction` tag (0–2) as the op's tag.
wire_enum! {
    ActionOp {
        3 => AppRequest { handler, request, args },
        4 => SignalEvent { name, args },
        5 => ForEachRow { query_index, ops },
        6 => AbortWith { message },
        _ => Db(DbAction),
    }
}

wire_struct! { Action { ops } }
wire_struct! { RuleDef { name, event, condition, action, ec_coupling, ca_coupling, enabled } }

/// Serialize a rule definition.
pub fn encode_rule(def: &RuleDef) -> Vec<u8> {
    codec::to_bytes(def)
}

/// Inverse of [`encode_rule`]; rejects trailing bytes.
pub fn decode_rule(buf: &[u8]) -> Result<RuleDef> {
    codec::from_bytes(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipac_event::spec::{DbEventKind, TemporalSpec};
    use hipac_event::EventSpec;
    use hipac_object::expr::Expr as E;
    use hipac_object::query::Query;

    fn sample_rules() -> Vec<RuleDef> {
        vec![
            RuleDef::new("minimal").on(EventSpec::on_update("stock")),
            RuleDef::new("full")
                .on(EventSpec::on_update("stock")
                    .or(EventSpec::external("tick"))
                    .then(EventSpec::Temporal(TemporalSpec::Relative {
                        baseline: Box::new(EventSpec::db(DbEventKind::Delete, None)),
                        offset: 500,
                    })))
                .when(Query::parse("from stock where new.price >= 50.0 and symbol = :s").unwrap())
                .when(Query::parse("from stock select symbol, price").unwrap())
                .then(
                    Action::single(ActionOp::Db(DbAction::Insert {
                        class: "audit".into(),
                        values: vec![E::NewAttr("price".into()), E::lit(1)],
                    }))
                    .then(ActionOp::Db(DbAction::UpdateWhere {
                        query: Query::parse("from stock where price < 0.0").unwrap(),
                        assignments: vec![("price".into(), E::lit(0.0))],
                    }))
                    .then(ActionOp::Db(DbAction::DeleteWhere {
                        query: Query::parse("from audit where entry = \"x\"").unwrap(),
                    }))
                    .then(ActionOp::AppRequest {
                        handler: "h".into(),
                        request: "r".into(),
                        args: vec![("a".into(), E::param("p"))],
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
                    }),
                )
                .ec(CouplingMode::Deferred)
                .ca(CouplingMode::Separate)
                .disabled(),
            RuleDef::new("derived-event").when(Query::all("stock")),
            RuleDef::new("temporal").on(EventSpec::Temporal(TemporalSpec::Periodic {
                period: 60,
                start: None,
            })),
            RuleDef::new("absolute").on(EventSpec::Temporal(TemporalSpec::Absolute {
                at: 12345,
            })),
            RuleDef::new("every-third")
                .on(EventSpec::on_update("stock").times(3)),
        ]
    }

    #[test]
    fn roundtrip_all_shapes() {
        for def in sample_rules() {
            let enc = encode_rule(&def);
            let back = decode_rule(&enc)
                .unwrap_or_else(|e| panic!("decode of {} failed: {e}", def.name));
            assert_eq!(back, def, "rule {}", def.name);
        }
    }

    #[test]
    fn truncation_never_panics() {
        for def in sample_rules() {
            let enc = encode_rule(&def);
            for cut in 0..enc.len() {
                assert!(decode_rule(&enc[..cut]).is_err(), "cut {cut} of {}", def.name);
            }
        }
    }

    /// `enabled` is written as 0 or 1; any other byte is corruption,
    /// not `false`.
    #[test]
    fn enabled_byte_other_than_0_and_1_is_rejected() {
        let mut enc = encode_rule(&RuleDef::new("r"));
        // The record ends with the enabled byte.
        *enc.last_mut().unwrap() = 2;
        assert!(decode_rule(&enc).is_err());
        *enc.last_mut().unwrap() = 0;
        assert!(!decode_rule(&enc).unwrap().enabled);
    }

    /// `Times` counts are u32s: a count past `u32::MAX` is corruption,
    /// not the count modulo 2^32.
    #[test]
    fn times_count_past_u32_is_rejected() {
        let record = |n: u64| {
            // name "r", event present, Times(n, update of any class),
            // no condition, no action, immediate/immediate, enabled.
            let mut b = vec![1, b'r', 1, 6];
            hipac_common::codec::put_uvarint(&mut b, n);
            b.extend([0, 1, 0, 0, 0, 0, 0, 1]);
            b
        };
        let three = decode_rule(&record(3)).unwrap();
        assert_eq!(
            three.event,
            Some(EventSpec::db(DbEventKind::Update, None).times(3))
        );
        assert!(decode_rule(&record((1 << 32) + 3)).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = encode_rule(&sample_rules()[0]);
        enc.push(0);
        assert!(decode_rule(&enc).is_err());
    }

    #[test]
    fn garbage_never_panics() {
        use rand_like::*;
        // Small deterministic pseudo-random corpus, no rand dependency
        // needed in unit scope.
        mod rand_like {
            pub fn bytes(seed: u64, len: usize) -> Vec<u8> {
                let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x & 0xFF) as u8
                    })
                    .collect()
            }
        }
        for seed in 0..200u64 {
            let data = bytes(seed, (seed % 64) as usize);
            let _ = decode_rule(&data);
        }
    }
}
