//! The expression language used by rule conditions and queries.
//!
//! Conditions in HiPAC are "a collection of queries … [that] may refer
//! to arguments in the event signal" (§2.1). Expressions here can
//! reference:
//!
//! * attributes of the object being tested (`price`), resolved to row
//!   slots before evaluation;
//! * the *old* and *new* images of an updated object (`old.price`,
//!   `new.price`) — the delta carried by database-operation events;
//! * named event parameters (`:client`, bound from the event signal).
//!
//! Null semantics: any comparison or arithmetic involving `null`
//! evaluates to `false`/`null`-propagation is avoided by design — use
//! `is_null(x)` to test for nulls explicitly. Boolean operators are
//! strict (both sides evaluated, must be booleans).
//!
//! A reference is resolved to a row slot once, when a query is prepared
//! or a rule compiled; the slot node keeps its name. Equality, hashing,
//! printing and the wire all read a slot node as that name, so a
//! resolved expression compares, hashes and encodes as the one it was
//! resolved from, and structurally identical predicates can be shared
//! across rules in the Condition Evaluator's condition graph (§5.5).

use hipac_common::codec::{get_byte, Wire};
use hipac_common::{wire_enum, HipacError, Result, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Not,
    Neg,
}

wire_enum! {
    UnOp {
        0 => Not,
        1 => Neg,
    }
}

/// Binary operators, in increasing binding strength groups:
/// `or` < `and` < comparisons < additive < multiplicative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

wire_enum! {
    BinOp {
        0 => Or,
        1 => And,
        2 => Eq,
        3 => Ne,
        4 => Lt,
        5 => Le,
        6 => Gt,
        7 => Ge,
        8 => Add,
        9 => Sub,
        10 => Mul,
        11 => Div,
        12 => Mod,
    }
}

impl BinOp {
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }

    /// Precedence for printing/parsing (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
        }
    }
}

/// Expression AST.
#[derive(Debug, Clone)]
pub enum Expr {
    Literal(Value),
    /// Unresolved attribute reference (name).
    Attr(String),
    /// Resolved attribute reference (slot in the row layout).
    Slot(usize, String),
    /// `old.name` — attribute of the pre-update image.
    OldAttr(String),
    OldSlot(usize, String),
    /// `new.name` — attribute of the post-update image.
    NewAttr(String),
    NewSlot(usize, String),
    /// `:name` — event-signal argument / named parameter.
    Param(String),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Built-in function call.
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Tag → variant name, as `wire_enum!` would emit it.
    pub const WIRE_TAGS: &'static [(u8, &'static str)] = &[
        (0, "Literal"),
        (1, "Attr"),
        (2, "OldAttr"),
        (3, "NewAttr"),
        (4, "Param"),
        (5, "Unary"),
        (6, "Binary"),
        (7, "Call"),
    ];
}

/// A slot node equals the named reference it was resolved from.
impl PartialEq for Expr {
    fn eq(&self, other: &Expr) -> bool {
        use Expr::*;
        match (self, other) {
            (Literal(a), Literal(b)) => a == b,
            (Attr(a) | Slot(_, a), Attr(b) | Slot(_, b))
            | (OldAttr(a) | OldSlot(_, a), OldAttr(b) | OldSlot(_, b))
            | (NewAttr(a) | NewSlot(_, a), NewAttr(b) | NewSlot(_, b))
            | (Param(a), Param(b)) => a == b,
            (Unary(o, a), Unary(p, b)) => o == p && a == b,
            (Binary(o, al, ar), Binary(p, bl, br)) => o == p && al == bl && ar == br,
            (Call(f, a), Call(g, b)) => f == g && a == b,
            _ => false,
        }
    }
}

impl Eq for Expr {}

/// Hashes a slot node as its name, consistent with `PartialEq`.
impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Expr::Literal(v) => {
                state.write_u8(0);
                v.hash(state);
            }
            Expr::Attr(n) | Expr::Slot(_, n) => {
                state.write_u8(1);
                n.hash(state);
            }
            Expr::OldAttr(n) | Expr::OldSlot(_, n) => {
                state.write_u8(2);
                n.hash(state);
            }
            Expr::NewAttr(n) | Expr::NewSlot(_, n) => {
                state.write_u8(3);
                n.hash(state);
            }
            Expr::Param(n) => {
                state.write_u8(4);
                n.hash(state);
            }
            Expr::Unary(op, x) => {
                state.write_u8(5);
                op.hash(state);
                x.hash(state);
            }
            Expr::Binary(op, l, r) => {
                state.write_u8(6);
                op.hash(state);
                l.hash(state);
                r.hash(state);
            }
            Expr::Call(f, args) => {
                state.write_u8(7);
                f.hash(state);
                args.hash(state);
            }
        }
    }
}

/// A reference resolver for [`Expr::resolve_refs`]: given a reference's
/// kind, name and current slot, the slot to resolve it to (`None`: leave
/// it named).
pub type RefResolver<'a> = dyn FnMut(RefKind, &str, Option<usize>) -> Result<Option<usize>> + 'a;

/// Which layout a reference reads: the current row's, or the event's
/// old or new image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefKind {
    Attr,
    Old,
    New,
}

/// Written by hand rather than by `wire_enum!`: a resolved slot persists
/// as its attribute name (`Slot` writes `Attr`'s tag, and so on), since
/// slots re-resolve against the schema at evaluation time.
impl Wire for Expr {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Expr::Literal(v) => {
                buf.push(0);
                v.put(buf);
            }
            Expr::Attr(n) | Expr::Slot(_, n) => {
                buf.push(1);
                n.put(buf);
            }
            Expr::OldAttr(n) | Expr::OldSlot(_, n) => {
                buf.push(2);
                n.put(buf);
            }
            Expr::NewAttr(n) | Expr::NewSlot(_, n) => {
                buf.push(3);
                n.put(buf);
            }
            Expr::Param(n) => {
                buf.push(4);
                n.put(buf);
            }
            Expr::Unary(op, x) => {
                buf.push(5);
                op.put(buf);
                x.put(buf);
            }
            Expr::Binary(op, l, r) => {
                buf.push(6);
                op.put(buf);
                l.put(buf);
                r.put(buf);
            }
            Expr::Call(f, args) => {
                buf.push(7);
                f.put(buf);
                args.put(buf);
            }
        }
    }

    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        Ok(match get_byte(buf, pos)? {
            0 => Expr::Literal(Wire::get(buf, pos)?),
            1 => Expr::Attr(Wire::get(buf, pos)?),
            2 => Expr::OldAttr(Wire::get(buf, pos)?),
            3 => Expr::NewAttr(Wire::get(buf, pos)?),
            4 => Expr::Param(Wire::get(buf, pos)?),
            5 => Expr::Unary(Wire::get(buf, pos)?, Wire::get(buf, pos)?),
            6 => Expr::Binary(
                Wire::get(buf, pos)?,
                Wire::get(buf, pos)?,
                Wire::get(buf, pos)?,
            ),
            7 => Expr::Call(Wire::get(buf, pos)?, Wire::get(buf, pos)?),
            other => return Err(HipacError::Corruption(format!("unknown Expr tag {other}"))),
        })
    }
}

/// Evaluation context: the current row (if scanning), the old/new
/// update images (if the triggering event carries them) and the named
/// parameter bindings from the event signal.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bindings<'a> {
    pub row: Option<&'a [Value]>,
    pub old: Option<&'a [Value]>,
    pub new: Option<&'a [Value]>,
    pub params: Option<&'a HashMap<String, Value>>,
}

impl Expr {
    /// Shorthand constructors used by tests and programmatic rules.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Unresolved attribute reference.
    pub fn attr(name: impl Into<String>) -> Expr {
        Expr::Attr(name.into())
    }

    /// Named parameter reference.
    pub fn param(name: impl Into<String>) -> Expr {
        Expr::Param(name.into())
    }

    /// `self op other`.
    pub fn bin(self, op: BinOp, other: Expr) -> Expr {
        Expr::Binary(op, Box::new(self), Box::new(other))
    }

    /// `self and other`.
    pub fn and(self, other: Expr) -> Expr {
        self.bin(BinOp::And, other)
    }

    /// `self or other`.
    pub fn or(self, other: Expr) -> Expr {
        self.bin(BinOp::Or, other)
    }

    /// Resolve every reference to a row slot using `resolver`,
    /// producing an executable expression.
    pub fn resolve(&self, resolver: &dyn Fn(&str) -> Result<usize>) -> Result<Expr> {
        self.resolve_split(resolver, resolver)
    }

    /// As [`Expr::resolve`], but with separate resolvers for plain
    /// attribute references (`attr`, resolved against the current row's
    /// class) and delta references (`delta`, resolved against the
    /// event's class — the two layouts can differ in rule actions).
    pub fn resolve_split(
        &self,
        attr: &dyn Fn(&str) -> Result<usize>,
        delta: &dyn Fn(&str) -> Result<usize>,
    ) -> Result<Expr> {
        self.resolve_refs(&mut |kind, name, _| match kind {
            RefKind::Attr => attr(name).map(Some),
            RefKind::Old | RefKind::New => delta(name).map(Some),
        })
    }

    /// Resolve references selectively. `f(kind, name, slot)` is asked
    /// for every reference in tree order, with its current slot if it
    /// has one: `Some(slot)` resolves it to that slot, `None` leaves it
    /// a named reference, and an error stops the walk. So a slot node
    /// can be re-resolved by its name against another layout, or kept
    /// by returning the slot it has.
    pub fn resolve_refs(
        &self,
        f: &mut RefResolver<'_>,
    ) -> Result<Expr> {
        Ok(match self {
            Expr::Attr(name) | Expr::Slot(_, name) => match f(RefKind::Attr, name, self.slot())? {
                Some(slot) => Expr::Slot(slot, name.clone()),
                None => Expr::Attr(name.clone()),
            },
            Expr::OldAttr(name) | Expr::OldSlot(_, name) => {
                match f(RefKind::Old, name, self.slot())? {
                    Some(slot) => Expr::OldSlot(slot, name.clone()),
                    None => Expr::OldAttr(name.clone()),
                }
            }
            Expr::NewAttr(name) | Expr::NewSlot(_, name) => {
                match f(RefKind::New, name, self.slot())? {
                    Some(slot) => Expr::NewSlot(slot, name.clone()),
                    None => Expr::NewAttr(name.clone()),
                }
            }
            Expr::Literal(_) | Expr::Param(_) => self.clone(),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.resolve_refs(f)?)),
            Expr::Binary(op, l, r) => {
                let l = l.resolve_refs(f)?;
                Expr::Binary(*op, Box::new(l), Box::new(r.resolve_refs(f)?))
            }
            Expr::Call(name, args) => Expr::Call(
                name.clone(),
                args.iter()
                    .map(|a| a.resolve_refs(f))
                    .collect::<Result<_>>()?,
            ),
        })
    }

    /// The slot of a resolved reference node.
    fn slot(&self) -> Option<usize> {
        match self {
            Expr::Slot(slot, _) | Expr::OldSlot(slot, _) | Expr::NewSlot(slot, _) => Some(*slot),
            _ => None,
        }
    }

    /// Visit every reference in tree order as `(kind, name, slot)`,
    /// `slot` being `None` for a named (unresolved) reference.
    pub fn for_each_ref(&self, f: &mut dyn FnMut(RefKind, &str, Option<usize>)) {
        match self {
            Expr::Attr(n) | Expr::Slot(_, n) => f(RefKind::Attr, n, self.slot()),
            Expr::OldAttr(n) | Expr::OldSlot(_, n) => f(RefKind::Old, n, self.slot()),
            Expr::NewAttr(n) | Expr::NewSlot(_, n) => f(RefKind::New, n, self.slot()),
            Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Unary(_, e) => e.for_each_ref(f),
            Expr::Binary(_, l, r) => {
                l.for_each_ref(f);
                r.for_each_ref(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.for_each_ref(f);
                }
            }
        }
    }

    /// Is every reference resolved to a slot?
    pub fn is_resolved(&self) -> bool {
        let mut all = true;
        self.for_each_ref(&mut |_, _, slot| all &= slot.is_some());
        all
    }

    /// Does the expression read the event's old or new image?
    pub fn reads_delta(&self) -> bool {
        let mut any = false;
        self.for_each_ref(&mut |kind, _, _| any |= kind != RefKind::Attr);
        any
    }

    /// The `index`-th top-level conjunct, counted as
    /// [`Expr::conjuncts`] lists them, without collecting them.
    pub fn conjunct(&self, index: usize) -> Option<&Expr> {
        fn walk<'a>(e: &'a Expr, index: &mut usize) -> Option<&'a Expr> {
            if let Expr::Binary(BinOp::And, l, r) = e {
                return walk(l, index).or_else(|| walk(r, index));
            }
            if *index == 0 {
                return Some(e);
            }
            *index -= 1;
            None
        }
        walk(self, &mut { index })
    }

    /// Collect the attribute names referenced (plain, old and new) —
    /// used for event derivation (§2.1) and index planning.
    pub fn referenced_attrs(&self, out: &mut Vec<String>) {
        self.for_each_ref(&mut |_, name, _| out.push(name.to_owned()));
    }

    /// Collect referenced parameter names.
    pub fn referenced_params(&self, out: &mut Vec<String>) {
        match self {
            Expr::Param(n) => out.push(n.clone()),
            Expr::Unary(_, e) => e.referenced_params(out),
            Expr::Binary(_, l, r) => {
                l.referenced_params(out);
                r.referenced_params(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.referenced_params(out);
                }
            }
            _ => {}
        }
    }

    /// Split a conjunction into its top-level conjuncts (for the
    /// planner and the condition graph).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary(BinOp::And, l, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Evaluate to a [`Value`].
    pub fn eval(&self, ctx: &Bindings<'_>) -> Result<Value> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Attr(n) | Expr::OldAttr(n) | Expr::NewAttr(n) => Err(
                HipacError::internal(format!("unresolved attribute {n} at eval time")),
            ),
            Expr::Slot(i, n) => ctx
                .row
                .and_then(|r| r.get(*i))
                .cloned()
                .ok_or_else(|| HipacError::EvalError(format!("no row for attribute {n}"))),
            Expr::OldSlot(i, n) => ctx
                .old
                .and_then(|r| r.get(*i))
                .cloned()
                .ok_or_else(|| {
                    HipacError::EvalError(format!("no old image for old.{n}"))
                }),
            Expr::NewSlot(i, n) => ctx
                .new
                .and_then(|r| r.get(*i))
                .cloned()
                .ok_or_else(|| {
                    HipacError::EvalError(format!("no new image for new.{n}"))
                }),
            Expr::Param(n) => ctx
                .params
                .and_then(|p| p.get(n))
                .cloned()
                .ok_or_else(|| HipacError::UnboundParameter(n.clone())),
            Expr::Unary(op, e) => {
                let v = e.eval(ctx)?;
                match op {
                    UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(i.checked_neg().ok_or_else(
                            || HipacError::EvalError("integer overflow".into()),
                        )?)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(HipacError::TypeError(format!(
                            "cannot negate {}",
                            other.value_type()
                        ))),
                    },
                }
            }
            Expr::Binary(op, l, r) => Self::eval_binary(*op, l, r, ctx),
            Expr::Call(f, args) => Self::eval_call(f, args, ctx),
        }
    }

    /// Evaluate as a boolean predicate.
    pub fn eval_bool(&self, ctx: &Bindings<'_>) -> Result<bool> {
        self.eval(ctx)?.as_bool()
    }

    fn eval_binary(op: BinOp, l: &Expr, r: &Expr, ctx: &Bindings<'_>) -> Result<Value> {
        match op {
            BinOp::And => {
                // Short-circuit.
                if !l.eval(ctx)?.as_bool()? {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(r.eval(ctx)?.as_bool()?))
            }
            BinOp::Or => {
                if l.eval(ctx)?.as_bool()? {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(r.eval(ctx)?.as_bool()?))
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let lv = l.eval(ctx)?;
                let rv = r.eval(ctx)?;
                // Comparisons against null are false (including null =
                // null; use is_null()).
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Bool(false));
                }
                let ord = lv.cmp(&rv);
                let b = match op {
                    BinOp::Eq => ord.is_eq(),
                    BinOp::Ne => ord.is_ne(),
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Le => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    BinOp::Ge => ord.is_ge(),
                    _ => unreachable!(),
                };
                Ok(Value::Bool(b))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let lv = l.eval(ctx)?;
                let rv = r.eval(ctx)?;
                Self::arith(op, lv, rv)
            }
        }
    }

    fn arith(op: BinOp, l: Value, r: Value) -> Result<Value> {
        use Value::*;
        // String concatenation via `+`.
        if op == BinOp::Add {
            if let (Str(a), Str(b)) = (&l, &r) {
                return Ok(Str(format!("{a}{b}")));
            }
        }
        match (&l, &r) {
            (Int(a), Int(b)) => {
                let a = *a;
                let b = *b;
                let out = match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => a.checked_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return Err(HipacError::EvalError("division by zero".into()));
                        }
                        a.checked_div(b)
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            return Err(HipacError::EvalError("modulo by zero".into()));
                        }
                        a.checked_rem(b)
                    }
                    _ => unreachable!(),
                };
                out.map(Int)
                    .ok_or_else(|| HipacError::EvalError("integer overflow".into()))
            }
            (Int(_) | Float(_), Int(_) | Float(_)) => {
                let a = l.as_float()?;
                let b = r.as_float()?;
                let out = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Mod => a % b,
                    _ => unreachable!(),
                };
                Ok(Float(out))
            }
            _ => Err(HipacError::TypeError(format!(
                "cannot apply {} to {} and {}",
                op.symbol(),
                l.value_type(),
                r.value_type()
            ))),
        }
    }

    fn eval_call(f: &str, args: &[Expr], ctx: &Bindings<'_>) -> Result<Value> {
        let vals: Vec<Value> = args.iter().map(|a| a.eval(ctx)).collect::<Result<_>>()?;
        let arity = |n: usize| -> Result<()> {
            if vals.len() != n {
                Err(HipacError::TypeError(format!(
                    "{f} expects {n} argument(s), got {}",
                    vals.len()
                )))
            } else {
                Ok(())
            }
        };
        match f {
            "is_null" => {
                arity(1)?;
                Ok(Value::Bool(vals[0].is_null()))
            }
            "abs" => {
                arity(1)?;
                match &vals[0] {
                    Value::Int(i) => Ok(Value::Int(i.checked_abs().ok_or_else(|| {
                        HipacError::EvalError("integer overflow".into())
                    })?)),
                    Value::Float(x) => Ok(Value::Float(x.abs())),
                    other => Err(HipacError::TypeError(format!(
                        "abs expects a number, got {}",
                        other.value_type()
                    ))),
                }
            }
            "len" => {
                arity(1)?;
                match &vals[0] {
                    Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                    Value::Bytes(b) => Ok(Value::Int(b.len() as i64)),
                    Value::List(l) => Ok(Value::Int(l.len() as i64)),
                    other => Err(HipacError::TypeError(format!(
                        "len expects str/bytes/list, got {}",
                        other.value_type()
                    ))),
                }
            }
            "lower" => {
                arity(1)?;
                Ok(Value::Str(vals[0].as_str()?.to_lowercase()))
            }
            "upper" => {
                arity(1)?;
                Ok(Value::Str(vals[0].as_str()?.to_uppercase()))
            }
            "contains" => {
                arity(2)?;
                Ok(Value::Bool(vals[0].as_str()?.contains(vals[1].as_str()?)))
            }
            "starts_with" => {
                arity(2)?;
                Ok(Value::Bool(
                    vals[0].as_str()?.starts_with(vals[1].as_str()?),
                ))
            }
            "min" => {
                arity(2)?;
                Ok(vals[0].clone().min(vals[1].clone()))
            }
            "max" => {
                arity(2)?;
                Ok(vals[0].clone().max(vals[1].clone()))
            }
            other => Err(HipacError::EvalError(format!("unknown function {other}"))),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_prec(e: &Expr, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
            match e {
                Expr::Literal(v) => write!(f, "{v}"),
                Expr::Attr(n) | Expr::Slot(_, n) => write!(f, "{n}"),
                Expr::OldAttr(n) | Expr::OldSlot(_, n) => write!(f, "old.{n}"),
                Expr::NewAttr(n) | Expr::NewSlot(_, n) => write!(f, "new.{n}"),
                Expr::Param(n) => write!(f, ":{n}"),
                Expr::Unary(UnOp::Not, e) => {
                    write!(f, "not ")?;
                    write_prec(e, f, 6)
                }
                Expr::Unary(UnOp::Neg, e) => {
                    write!(f, "-")?;
                    write_prec(e, f, 6)
                }
                Expr::Binary(op, l, r) => {
                    let p = op.precedence();
                    if p < parent {
                        write!(f, "(")?;
                    }
                    // Comparisons are non-associative (`a = b = c` does
                    // not parse), so both sides must bind tighter; for
                    // the associative/left-associative operators only
                    // the right side needs the bump.
                    let non_assoc = matches!(
                        op,
                        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                    );
                    write_prec(l, f, if non_assoc { p + 1 } else { p })?;
                    write!(f, " {} ", op.symbol())?;
                    write_prec(r, f, p + 1)?;
                    if p < parent {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Expr::Call(name, args) => {
                    write!(f, "{name}(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write_prec(a, f, 0)?;
                    }
                    write!(f, ")")
                }
            }
        }
        write_prec(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with_row(row: &[Value]) -> Bindings<'_> {
        Bindings {
            row: Some(row),
            ..Default::default()
        }
    }

    fn resolve_simple(e: Expr) -> Expr {
        // symbol -> slot 0, price -> slot 1
        e.resolve(&|name| match name {
            "symbol" => Ok(0),
            "price" => Ok(1),
            other => Err(HipacError::UnknownAttribute(other.into())),
        })
        .unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = resolve_simple(
            Expr::attr("price")
                .bin(BinOp::Mul, Expr::lit(2))
                .bin(BinOp::Ge, Expr::lit(100.0)),
        );
        let row = vec![Value::from("XRX"), Value::from(50.0)];
        assert!(e.eval_bool(&ctx_with_row(&row)).unwrap());
        let row = vec![Value::from("XRX"), Value::from(49.0)];
        assert!(!e.eval_bool(&ctx_with_row(&row)).unwrap());
    }

    #[test]
    fn int_arithmetic_is_exact_and_checked() {
        let ctx = Bindings::default();
        assert_eq!(
            Expr::lit(7).bin(BinOp::Div, Expr::lit(2)).eval(&ctx).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Expr::lit(7).bin(BinOp::Mod, Expr::lit(2)).eval(&ctx).unwrap(),
            Value::Int(1)
        );
        assert!(Expr::lit(1).bin(BinOp::Div, Expr::lit(0)).eval(&ctx).is_err());
        assert!(Expr::lit(i64::MAX)
            .bin(BinOp::Add, Expr::lit(1))
            .eval(&ctx)
            .is_err());
        assert_eq!(
            Expr::lit(7).bin(BinOp::Div, Expr::lit(2.0)).eval(&ctx).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn string_concat_and_functions() {
        let ctx = Bindings::default();
        assert_eq!(
            Expr::lit("foo")
                .bin(BinOp::Add, Expr::lit("bar"))
                .eval(&ctx)
                .unwrap(),
            Value::from("foobar")
        );
        assert_eq!(
            Expr::Call("upper".into(), vec![Expr::lit("xrx")])
                .eval(&ctx)
                .unwrap(),
            Value::from("XRX")
        );
        assert_eq!(
            Expr::Call(
                "contains".into(),
                vec![Expr::lit("hello world"), Expr::lit("lo w")]
            )
            .eval(&ctx)
            .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::Call("len".into(), vec![Expr::lit("héllo")])
                .eval(&ctx)
                .unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn boolean_short_circuit() {
        let ctx = Bindings::default();
        // The right side would error (unbound param) but must not be
        // evaluated.
        let e = Expr::lit(false).and(Expr::param("missing"));
        assert!(!e.eval_bool(&ctx).unwrap());
        let e = Expr::lit(true).or(Expr::param("missing"));
        assert!(e.eval_bool(&ctx).unwrap());
        // But when needed, the error surfaces.
        let e = Expr::lit(true).and(Expr::param("missing"));
        assert!(matches!(
            e.eval_bool(&ctx),
            Err(HipacError::UnboundParameter(_))
        ));
    }

    #[test]
    fn null_comparisons_are_false() {
        let ctx = Bindings::default();
        let e = Expr::lit(Value::Null).bin(BinOp::Eq, Expr::lit(Value::Null));
        assert!(!e.eval_bool(&ctx).unwrap());
        let e = Expr::lit(Value::Null).bin(BinOp::Lt, Expr::lit(5));
        assert!(!e.eval_bool(&ctx).unwrap());
        let e = Expr::Call("is_null".into(), vec![Expr::lit(Value::Null)]);
        assert!(e.eval_bool(&ctx).unwrap());
    }

    #[test]
    fn old_new_images() {
        let e = Expr::NewAttr("price".into())
            .bin(BinOp::Gt, Expr::OldAttr("price".into()))
            .resolve(&|n| if n == "price" { Ok(1) } else { Err(HipacError::UnknownAttribute(n.into())) })
            .unwrap();
        let old = vec![Value::from("XRX"), Value::from(48.0)];
        let new = vec![Value::from("XRX"), Value::from(50.0)];
        let ctx = Bindings {
            old: Some(&old),
            new: Some(&new),
            ..Default::default()
        };
        assert!(e.eval_bool(&ctx).unwrap());
        // Without images, evaluation errors cleanly.
        assert!(e.eval_bool(&Bindings::default()).is_err());
    }

    #[test]
    fn params_bind_from_signal() {
        let mut params = HashMap::new();
        params.insert("client".to_string(), Value::from("A"));
        let ctx = Bindings {
            params: Some(&params),
            ..Default::default()
        };
        let e = Expr::param("client").bin(BinOp::Eq, Expr::lit("A"));
        assert!(e.eval_bool(&ctx).unwrap());
    }

    #[test]
    fn referenced_attrs_and_conjuncts() {
        let e = Expr::attr("price")
            .bin(BinOp::Ge, Expr::lit(50))
            .and(Expr::attr("symbol").bin(BinOp::Eq, Expr::param("sym")))
            .and(Expr::NewAttr("price".into()).bin(BinOp::Ne, Expr::lit(0)));
        let mut attrs = Vec::new();
        e.referenced_attrs(&mut attrs);
        assert_eq!(attrs, vec!["price", "symbol", "price"]);
        let mut params = Vec::new();
        e.referenced_params(&mut params);
        assert_eq!(params, vec!["sym"]);
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::attr("price")
            .bin(BinOp::Ge, Expr::lit(50))
            .and(Expr::attr("a").bin(BinOp::Add, Expr::lit(1)).bin(
                BinOp::Lt,
                Expr::lit(10),
            ));
        assert_eq!(e.to_string(), "price >= 50 and a + 1 < 10");
        let e = Expr::lit(1).bin(BinOp::Add, Expr::lit(2)).bin(BinOp::Mul, Expr::lit(3));
        assert_eq!(e.to_string(), "(1 + 2) * 3");
    }

    #[test]
    fn structural_equality_for_sharing() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Expr::attr("price").bin(BinOp::Ge, Expr::lit(50));
        let b = Expr::attr("price").bin(BinOp::Ge, Expr::lit(50));
        assert_eq!(a, b);
        let mut ha = DefaultHasher::new();
        a.hash(&mut ha);
        let mut hb = DefaultHasher::new();
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }
}
