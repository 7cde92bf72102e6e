//! Durable serialization of rule definitions.
//!
//! Rules are database objects (§2 of the paper), so they persist with
//! the database: the Rule Manager stores committed rule definitions in
//! the durable store under their own key prefix and reloads them on
//! open. The format reuses the workspace codec primitives (tag bytes +
//! varints + length-prefixed strings); like the other on-disk formats,
//! tags are append-only.

use crate::rule::{Action, ActionOp, CouplingMode, DbAction, RuleDef};
use hipac_common::codec::{get_bytes, get_uvarint, get_value, put_bytes, put_uvarint, put_value};
use hipac_common::{HipacError, Result};
use hipac_event::spec::{DbEventKind, TemporalSpec};
use hipac_event::EventSpec;
use hipac_object::expr::{BinOp, Expr, UnOp};
use hipac_object::query::Query;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let b = get_bytes(buf, pos)?;
    std::str::from_utf8(b)
        .map(str::to_owned)
        .map_err(|_| HipacError::Corruption("non-utf8 string in rule codec".into()))
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| HipacError::Corruption("truncated rule codec".into()))?;
    *pos += 1;
    Ok(b)
}

// ---- expressions ----------------------------------------------------

fn put_expr(buf: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Literal(v) => {
            buf.push(0);
            put_value(buf, v);
        }
        Expr::Attr(n) | Expr::Slot(_, n) => {
            // Slots re-resolve at evaluation time; persist the name.
            buf.push(1);
            put_str(buf, n);
        }
        Expr::OldAttr(n) | Expr::OldSlot(_, n) => {
            buf.push(2);
            put_str(buf, n);
        }
        Expr::NewAttr(n) | Expr::NewSlot(_, n) => {
            buf.push(3);
            put_str(buf, n);
        }
        Expr::Param(n) => {
            buf.push(4);
            put_str(buf, n);
        }
        Expr::Unary(op, x) => {
            buf.push(5);
            buf.push(match op {
                UnOp::Not => 0,
                UnOp::Neg => 1,
            });
            put_expr(buf, x);
        }
        Expr::Binary(op, l, r) => {
            buf.push(6);
            buf.push(binop_tag(*op));
            put_expr(buf, l);
            put_expr(buf, r);
        }
        Expr::Call(f, args) => {
            buf.push(7);
            put_str(buf, f);
            put_uvarint(buf, args.len() as u64);
            for a in args {
                put_expr(buf, a);
            }
        }
    }
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 0,
        BinOp::And => 1,
        BinOp::Eq => 2,
        BinOp::Ne => 3,
        BinOp::Lt => 4,
        BinOp::Le => 5,
        BinOp::Gt => 6,
        BinOp::Ge => 7,
        BinOp::Add => 8,
        BinOp::Sub => 9,
        BinOp::Mul => 10,
        BinOp::Div => 11,
        BinOp::Mod => 12,
    }
}

fn untag_binop(t: u8) -> Result<BinOp> {
    Ok(match t {
        0 => BinOp::Or,
        1 => BinOp::And,
        2 => BinOp::Eq,
        3 => BinOp::Ne,
        4 => BinOp::Lt,
        5 => BinOp::Le,
        6 => BinOp::Gt,
        7 => BinOp::Ge,
        8 => BinOp::Add,
        9 => BinOp::Sub,
        10 => BinOp::Mul,
        11 => BinOp::Div,
        12 => BinOp::Mod,
        other => {
            return Err(HipacError::Corruption(format!("bad binop tag {other}")))
        }
    })
}

fn get_expr(buf: &[u8], pos: &mut usize) -> Result<Expr> {
    Ok(match get_u8(buf, pos)? {
        0 => Expr::Literal(get_value(buf, pos)?),
        1 => Expr::Attr(get_str(buf, pos)?),
        2 => Expr::OldAttr(get_str(buf, pos)?),
        3 => Expr::NewAttr(get_str(buf, pos)?),
        4 => Expr::Param(get_str(buf, pos)?),
        5 => {
            let op = match get_u8(buf, pos)? {
                0 => UnOp::Not,
                1 => UnOp::Neg,
                other => {
                    return Err(HipacError::Corruption(format!("bad unop tag {other}")))
                }
            };
            Expr::Unary(op, Box::new(get_expr(buf, pos)?))
        }
        6 => {
            let op = untag_binop(get_u8(buf, pos)?)?;
            let l = get_expr(buf, pos)?;
            let r = get_expr(buf, pos)?;
            Expr::Binary(op, Box::new(l), Box::new(r))
        }
        7 => {
            let f = get_str(buf, pos)?;
            let n = get_uvarint(buf, pos)? as usize;
            if n > buf.len().saturating_sub(*pos) {
                return Err(HipacError::Corruption("call arity exceeds input".into()));
            }
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_expr(buf, pos)?);
            }
            Expr::Call(f, args)
        }
        other => return Err(HipacError::Corruption(format!("bad expr tag {other}"))),
    })
}

// ---- queries ----------------------------------------------------------

fn put_query(buf: &mut Vec<u8>, q: &Query) {
    put_str(buf, &q.class);
    put_expr(buf, &q.predicate);
    match &q.projection {
        None => buf.push(0),
        Some(attrs) => {
            buf.push(1);
            put_uvarint(buf, attrs.len() as u64);
            for a in attrs {
                put_str(buf, a);
            }
        }
    }
}

fn get_query(buf: &[u8], pos: &mut usize) -> Result<Query> {
    let class = get_str(buf, pos)?;
    let predicate = get_expr(buf, pos)?;
    let projection = match get_u8(buf, pos)? {
        0 => None,
        1 => {
            let n = get_uvarint(buf, pos)? as usize;
            if n > buf.len().saturating_sub(*pos) {
                return Err(HipacError::Corruption("projection exceeds input".into()));
            }
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                attrs.push(get_str(buf, pos)?);
            }
            Some(attrs)
        }
        other => {
            return Err(HipacError::Corruption(format!(
                "bad projection flag {other}"
            )))
        }
    };
    Ok(Query {
        class,
        predicate,
        projection,
    })
}

// ---- event specs -------------------------------------------------------

fn db_kind_tag(k: DbEventKind) -> u8 {
    match k {
        DbEventKind::Insert => 0,
        DbEventKind::Update => 1,
        DbEventKind::Delete => 2,
        DbEventKind::CreateClass => 3,
        DbEventKind::DropClass => 4,
        DbEventKind::TxnBegin => 5,
        DbEventKind::TxnCommit => 6,
        DbEventKind::TxnAbort => 7,
    }
}

fn untag_db_kind(t: u8) -> Result<DbEventKind> {
    Ok(match t {
        0 => DbEventKind::Insert,
        1 => DbEventKind::Update,
        2 => DbEventKind::Delete,
        3 => DbEventKind::CreateClass,
        4 => DbEventKind::DropClass,
        5 => DbEventKind::TxnBegin,
        6 => DbEventKind::TxnCommit,
        7 => DbEventKind::TxnAbort,
        other => {
            return Err(HipacError::Corruption(format!(
                "bad db event kind {other}"
            )))
        }
    })
}

fn put_spec(buf: &mut Vec<u8>, s: &EventSpec) {
    match s {
        EventSpec::Database { kind, class } => {
            buf.push(0);
            buf.push(db_kind_tag(*kind));
            match class {
                None => buf.push(0),
                Some(c) => {
                    buf.push(1);
                    put_str(buf, c);
                }
            }
        }
        EventSpec::Temporal(t) => {
            buf.push(1);
            match t {
                TemporalSpec::Absolute { at } => {
                    buf.push(0);
                    put_uvarint(buf, *at);
                }
                TemporalSpec::Relative { baseline, offset } => {
                    buf.push(1);
                    put_spec(buf, baseline);
                    put_uvarint(buf, *offset);
                }
                TemporalSpec::Periodic { period, start } => {
                    buf.push(2);
                    put_uvarint(buf, *period);
                    match start {
                        None => buf.push(0),
                        Some(s) => {
                            buf.push(1);
                            put_uvarint(buf, *s);
                        }
                    }
                }
            }
        }
        EventSpec::External { name } => {
            buf.push(2);
            put_str(buf, name);
        }
        EventSpec::Disjunction(l, r) => {
            buf.push(3);
            put_spec(buf, l);
            put_spec(buf, r);
        }
        EventSpec::Sequence(l, r) => {
            buf.push(4);
            put_spec(buf, l);
            put_spec(buf, r);
        }
        EventSpec::Conjunction(l, r) => {
            buf.push(5);
            put_spec(buf, l);
            put_spec(buf, r);
        }
        EventSpec::Times(n, inner) => {
            buf.push(6);
            put_uvarint(buf, u64::from(*n));
            put_spec(buf, inner);
        }
    }
}

fn get_spec(buf: &[u8], pos: &mut usize) -> Result<EventSpec> {
    Ok(match get_u8(buf, pos)? {
        0 => {
            let kind = untag_db_kind(get_u8(buf, pos)?)?;
            let class = match get_u8(buf, pos)? {
                0 => None,
                1 => Some(get_str(buf, pos)?),
                other => {
                    return Err(HipacError::Corruption(format!(
                        "bad class flag {other}"
                    )))
                }
            };
            EventSpec::Database { kind, class }
        }
        1 => EventSpec::Temporal(match get_u8(buf, pos)? {
            0 => TemporalSpec::Absolute {
                at: get_uvarint(buf, pos)?,
            },
            1 => {
                let baseline = Box::new(get_spec(buf, pos)?);
                TemporalSpec::Relative {
                    baseline,
                    offset: get_uvarint(buf, pos)?,
                }
            }
            2 => {
                let period = get_uvarint(buf, pos)?;
                let start = match get_u8(buf, pos)? {
                    0 => None,
                    1 => Some(get_uvarint(buf, pos)?),
                    other => {
                        return Err(HipacError::Corruption(format!(
                            "bad start flag {other}"
                        )))
                    }
                };
                TemporalSpec::Periodic { period, start }
            }
            other => {
                return Err(HipacError::Corruption(format!(
                    "bad temporal tag {other}"
                )))
            }
        }),
        2 => EventSpec::External {
            name: get_str(buf, pos)?,
        },
        3 => EventSpec::Disjunction(
            Box::new(get_spec(buf, pos)?),
            Box::new(get_spec(buf, pos)?),
        ),
        4 => EventSpec::Sequence(
            Box::new(get_spec(buf, pos)?),
            Box::new(get_spec(buf, pos)?),
        ),
        5 => EventSpec::Conjunction(
            Box::new(get_spec(buf, pos)?),
            Box::new(get_spec(buf, pos)?),
        ),
        6 => {
            let n = get_uvarint(buf, pos)? as u32;
            EventSpec::Times(n, Box::new(get_spec(buf, pos)?))
        }
        other => return Err(HipacError::Corruption(format!("bad spec tag {other}"))),
    })
}

// ---- actions -----------------------------------------------------------

fn put_args(buf: &mut Vec<u8>, args: &[(String, Expr)]) {
    put_uvarint(buf, args.len() as u64);
    for (name, e) in args {
        put_str(buf, name);
        put_expr(buf, e);
    }
}

fn get_args(buf: &[u8], pos: &mut usize) -> Result<Vec<(String, Expr)>> {
    let n = get_uvarint(buf, pos)? as usize;
    if n > buf.len().saturating_sub(*pos) {
        return Err(HipacError::Corruption("arg count exceeds input".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(buf, pos)?;
        out.push((name, get_expr(buf, pos)?));
    }
    Ok(out)
}

fn put_op(buf: &mut Vec<u8>, op: &ActionOp) {
    match op {
        ActionOp::Db(DbAction::Insert { class, values }) => {
            buf.push(0);
            put_str(buf, class);
            put_uvarint(buf, values.len() as u64);
            for v in values {
                put_expr(buf, v);
            }
        }
        ActionOp::Db(DbAction::UpdateWhere { query, assignments }) => {
            buf.push(1);
            put_query(buf, query);
            put_args(buf, assignments);
        }
        ActionOp::Db(DbAction::DeleteWhere { query }) => {
            buf.push(2);
            put_query(buf, query);
        }
        ActionOp::AppRequest {
            handler,
            request,
            args,
        } => {
            buf.push(3);
            put_str(buf, handler);
            put_str(buf, request);
            put_args(buf, args);
        }
        ActionOp::SignalEvent { name, args } => {
            buf.push(4);
            put_str(buf, name);
            put_args(buf, args);
        }
        ActionOp::ForEachRow { query_index, ops } => {
            buf.push(5);
            put_uvarint(buf, *query_index as u64);
            put_uvarint(buf, ops.len() as u64);
            for o in ops {
                put_op(buf, o);
            }
        }
        ActionOp::AbortWith { message } => {
            buf.push(6);
            put_str(buf, message);
        }
    }
}

fn get_op(buf: &[u8], pos: &mut usize) -> Result<ActionOp> {
    Ok(match get_u8(buf, pos)? {
        0 => {
            let class = get_str(buf, pos)?;
            let n = get_uvarint(buf, pos)? as usize;
            if n > buf.len().saturating_sub(*pos) {
                return Err(HipacError::Corruption("insert arity exceeds input".into()));
            }
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(get_expr(buf, pos)?);
            }
            ActionOp::Db(DbAction::Insert { class, values })
        }
        1 => ActionOp::Db(DbAction::UpdateWhere {
            query: get_query(buf, pos)?,
            assignments: get_args(buf, pos)?,
        }),
        2 => ActionOp::Db(DbAction::DeleteWhere {
            query: get_query(buf, pos)?,
        }),
        3 => {
            let handler = get_str(buf, pos)?;
            let request = get_str(buf, pos)?;
            ActionOp::AppRequest {
                handler,
                request,
                args: get_args(buf, pos)?,
            }
        }
        4 => {
            let name = get_str(buf, pos)?;
            ActionOp::SignalEvent {
                name,
                args: get_args(buf, pos)?,
            }
        }
        5 => {
            let query_index = get_uvarint(buf, pos)? as usize;
            let n = get_uvarint(buf, pos)? as usize;
            if n > buf.len().saturating_sub(*pos) {
                return Err(HipacError::Corruption("op count exceeds input".into()));
            }
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(get_op(buf, pos)?);
            }
            ActionOp::ForEachRow { query_index, ops }
        }
        6 => ActionOp::AbortWith {
            message: get_str(buf, pos)?,
        },
        other => return Err(HipacError::Corruption(format!("bad action tag {other}"))),
    })
}

// ---- rules ---------------------------------------------------------------

fn coupling_tag(c: CouplingMode) -> u8 {
    match c {
        CouplingMode::Immediate => 0,
        CouplingMode::Deferred => 1,
        CouplingMode::Separate => 2,
    }
}

fn untag_coupling(t: u8) -> Result<CouplingMode> {
    Ok(match t {
        0 => CouplingMode::Immediate,
        1 => CouplingMode::Deferred,
        2 => CouplingMode::Separate,
        other => {
            return Err(HipacError::Corruption(format!(
                "bad coupling tag {other}"
            )))
        }
    })
}

/// Serialize a rule definition.
pub fn encode_rule(def: &RuleDef) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    put_str(&mut buf, &def.name);
    match &def.event {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            put_spec(&mut buf, s);
        }
    }
    put_uvarint(&mut buf, def.condition.len() as u64);
    for q in &def.condition {
        put_query(&mut buf, q);
    }
    put_uvarint(&mut buf, def.action.ops.len() as u64);
    for op in &def.action.ops {
        put_op(&mut buf, op);
    }
    buf.push(coupling_tag(def.ec_coupling));
    buf.push(coupling_tag(def.ca_coupling));
    buf.push(u8::from(def.enabled));
    buf
}

/// Inverse of [`encode_rule`].
pub fn decode_rule(buf: &[u8]) -> Result<RuleDef> {
    let mut pos = 0usize;
    let name = get_str(buf, &mut pos)?;
    let event = match get_u8(buf, &mut pos)? {
        0 => None,
        1 => Some(get_spec(buf, &mut pos)?),
        other => {
            return Err(HipacError::Corruption(format!("bad event flag {other}")))
        }
    };
    let nq = get_uvarint(buf, &mut pos)? as usize;
    if nq > buf.len().saturating_sub(pos) {
        return Err(HipacError::Corruption("query count exceeds input".into()));
    }
    let mut condition = Vec::with_capacity(nq);
    for _ in 0..nq {
        condition.push(get_query(buf, &mut pos)?);
    }
    let no = get_uvarint(buf, &mut pos)? as usize;
    if no > buf.len().saturating_sub(pos) {
        return Err(HipacError::Corruption("op count exceeds input".into()));
    }
    let mut ops = Vec::with_capacity(no);
    for _ in 0..no {
        ops.push(get_op(buf, &mut pos)?);
    }
    let ec_coupling = untag_coupling(get_u8(buf, &mut pos)?)?;
    let ca_coupling = untag_coupling(get_u8(buf, &mut pos)?)?;
    let enabled = get_u8(buf, &mut pos)? == 1;
    if pos != buf.len() {
        return Err(HipacError::Corruption(
            "trailing bytes after rule definition".into(),
        ));
    }
    Ok(RuleDef {
        name,
        event,
        condition,
        action: Action { ops },
        ec_coupling,
        ca_coupling,
        enabled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipac_object::expr::Expr as E;

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
