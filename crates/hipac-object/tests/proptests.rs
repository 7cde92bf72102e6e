//! Property tests for the Object Manager's expression language:
//! printer/parser stability, resolve/eval robustness, and schema layout
//! invariants.

use hipac_common::{HipacError, Value, ValueType};
use hipac_object::expr::{BinOp, Bindings, Expr, UnOp};
use hipac_object::parser::parse_expr;
use hipac_object::schema::{AttrDef, ClassDef, Schema};
use hipac_common::ClassId;
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword", |s| {
        !matches!(s.as_str(), "and" | "or" | "not" | "true" | "false" | "null" | "old" | "new")
    })
}

fn arb_literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        any::<i64>()
            .prop_map(|i| Expr::Literal(Value::Int(i.checked_abs().unwrap_or(i64::MAX)))),
        // Positive finite floats with simple decimal forms survive the
        // Display→parse cycle structurally.
        (0u32..100000u32, 1u32..1000u32)
            .prop_map(|(a, b)| Expr::Literal(Value::Float(a as f64 + b as f64 / 1000.0))),
        Just(Expr::Literal(Value::Bool(true))),
        Just(Expr::Literal(Value::Bool(false))),
        Just(Expr::Literal(Value::Null)),
        "[a-zA-Z0-9 _.,!?-]{0,10}".prop_map(|s| Expr::Literal(Value::Str(s))),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Or),
        Just(BinOp::And),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_literal(),
        arb_ident().prop_map(Expr::Attr),
        arb_ident().prop_map(Expr::OldAttr),
        arb_ident().prop_map(Expr::NewAttr),
        arb_ident().prop_map(Expr::Param),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (arb_binop(), inner.clone(), inner.clone())
                .prop_map(|(op, l, r)| Expr::Binary(op, Box::new(l), Box::new(r))),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Not, Box::new(e))),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Neg, Box::new(e))),
            (arb_ident(), proptest::collection::vec(inner, 0..3))
                .prop_map(|(f, args)| Expr::Call(f, args)),
        ]
    })
}

proptest! {
    /// print ∘ parse ∘ print == print (print-stability): the printed
    /// form is a fixed point, so the syntax is unambiguous.
    #[test]
    fn printer_is_a_fixed_point_of_parsing(e in arb_expr()) {
        let printed = e.to_string();
        let parsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("parse of {printed:?} failed: {err}"));
        prop_assert_eq!(parsed.to_string(), printed);
    }

    /// Parsing the printed form yields a structurally equal AST
    /// (modulo the unary-minus-of-literal representation, which the
    /// generator avoids by using non-negative literals).
    #[test]
    fn parse_of_print_is_structural_identity(e in arb_expr()) {
        let printed = e.to_string();
        let parsed = parse_expr(&printed).unwrap();
        prop_assert_eq!(parsed, e);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(src in "\\PC{0,60}") {
        let _ = parse_expr(&src);
    }

    /// Evaluation of resolved expressions never panics: it returns a
    /// value or a typed error.
    #[test]
    fn eval_total_on_random_rows(
        e in arb_expr(),
        row in proptest::collection::vec(
            prop_oneof![
                any::<i64>().prop_map(Value::Int),
                any::<bool>().prop_map(Value::Bool),
                ".{0,6}".prop_map(Value::Str),
                Just(Value::Null),
            ],
            4,
        ),
    ) {
        // Resolve every name to some slot in the 4-wide row.
        let resolved = e.resolve(&|name: &str| {
            Ok(name.len() % 4)
        }).unwrap();
        let params: HashMap<String, Value> = HashMap::new();
        let ctx = Bindings {
            row: Some(&row),
            old: Some(&row),
            new: Some(&row),
            params: Some(&params),
        };
        match resolved.eval(&ctx) {
            Ok(_) => {}
            Err(HipacError::TypeError(_))
            | Err(HipacError::EvalError(_))
            | Err(HipacError::UnboundParameter(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }
}

fn deep_schema(depth: usize, attrs_per_class: usize) -> Schema {
    let mut classes = Vec::new();
    for level in 0..depth {
        classes.push(ClassDef {
            id: ClassId(level as u64 + 1),
            name: format!("c{level}"),
            superclass: (level > 0).then_some(ClassId(level as u64)),
            attrs: (0..attrs_per_class)
                .map(|i| AttrDef::new(format!("a{level}_{i}"), ValueType::Int))
                .collect(),
            system: false,
        });
    }
    Schema::new(classes)
}

proptest! {
    /// Layout invariants under arbitrary hierarchy shapes: the layout
    /// of a subclass extends its superclass's layout as a prefix, and
    /// attribute resolution agrees between them.
    #[test]
    fn subclass_layout_extends_superclass_prefix(
        depth in 1usize..6,
        attrs in 1usize..4,
    ) {
        let schema = deep_schema(depth, attrs);
        for level in 1..depth {
            let sup = ClassId(level as u64);
            let sub = ClassId(level as u64 + 1);
            let sup_layout: Vec<_> = schema.layout(sup).unwrap().collect();
            let sub_layout: Vec<_> = schema.layout(sub).unwrap().collect();
            prop_assert_eq!(sub_layout.len(), sup_layout.len() + attrs);
            for (i, a) in sup_layout.iter().enumerate() {
                prop_assert_eq!(&sub_layout[i].name, &a.name);
                // Inherited attributes resolve to the same slot.
                let (slot, _) = schema.resolve_attr(sub, &a.name).unwrap();
                prop_assert_eq!(slot, i);
            }
            prop_assert!(schema.is_subclass_or_self(sub, sup));
            prop_assert!(!schema.is_subclass_or_self(sup, sub));
        }
    }
}
