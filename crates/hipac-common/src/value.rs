//! The dynamic value type.
//!
//! Object attributes, event-signal arguments, query results and rule
//! bindings are all made of [`Value`]s. The paper's prototype used
//! Smalltalk objects here; we use a closed dynamic type that covers the
//! needs of the object model, the condition language and the examples.

use crate::error::{HipacError, Result};
use crate::id::ObjectId;
use std::cmp::Ordering;
use std::fmt;

/// The type of a [`Value`]. Used by the schema catalog for attribute
/// typing and by the expression type-checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ValueType {
    /// The type of `Value::Null` only. Attributes are never declared
    /// `Null`; it appears as the bottom type in expression checking.
    Null,
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Raw byte string.
    Bytes,
    /// Reference to another object.
    Ref,
    /// Microseconds since the epoch of the database clock.
    Timestamp,
    /// Heterogeneous list.
    List,
}

crate::wire_enum! {
    ValueType {
        0 => Null,
        1 => Bool,
        2 => Int,
        3 => Float,
        4 => Str,
        5 => Bytes,
        6 => Ref,
        7 => Timestamp,
        8 => List,
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Null => "null",
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "str",
            ValueType::Bytes => "bytes",
            ValueType::Ref => "ref",
            ValueType::Timestamp => "timestamp",
            ValueType::List => "list",
        };
        f.write_str(s)
    }
}

/// A dynamically typed database value.
///
/// `Value` implements a *total* order so that it can be used as a B+tree
/// key and in ORDER BY-like contexts: values of different types order by
/// a fixed type rank; `Float` NaN sorts after every other float and equal
/// to itself. `Int` and `Float` compare numerically with each other.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Bytes(Vec<u8>),
    Ref(ObjectId),
    Timestamp(u64),
    List(Vec<Value>),
}

impl Value {
    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Bytes(_) => ValueType::Bytes,
            Value::Ref(_) => ValueType::Ref,
            Value::Timestamp(_) => ValueType::Timestamp,
            Value::List(_) => ValueType::List,
        }
    }

    /// True iff this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value can be stored in an attribute declared with
    /// type `ty`. `Null` is storable in any attribute (nullability is
    /// enforced separately by the schema) and `Int` widens to `Float`.
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), ValueType::Float) => true,
            (v, t) => v.value_type() == t,
        }
    }

    /// Interpret as a boolean, for condition evaluation.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(HipacError::TypeError(format!(
                "expected bool, found {}: {other}",
                other.value_type()
            ))),
        }
    }

    /// Interpret as an integer.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(HipacError::TypeError(format!(
                "expected int, found {}: {other}",
                other.value_type()
            ))),
        }
    }

    /// Interpret as a float, widening integers.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(HipacError::TypeError(format!(
                "expected float, found {}: {other}",
                other.value_type()
            ))),
        }
    }

    /// Interpret as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(HipacError::TypeError(format!(
                "expected str, found {}: {other}",
                other.value_type()
            ))),
        }
    }

    /// Interpret as an object reference.
    pub fn as_ref_id(&self) -> Result<ObjectId> {
        match self {
            Value::Ref(id) => Ok(*id),
            other => Err(HipacError::TypeError(format!(
                "expected ref, found {}: {other}",
                other.value_type()
            ))),
        }
    }

    /// Rank used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            // Int and Float share a rank: they compare numerically.
            Value::Int(_) | Value::Float(_) => 2,
            Value::Timestamp(_) => 3,
            Value::Str(_) => 4,
            Value::Bytes(_) => 5,
            Value::Ref(_) => 6,
            Value::List(_) => 7,
        }
    }

    /// Total-order float comparison: NaN sorts greatest.
    pub fn cmp_f64(a: f64, b: f64) -> Ordering {
        match a.partial_cmp(&b) {
            Some(o) => o,
            None => match (a.is_nan(), b.is_nan()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => unreachable!("partial_cmp on non-NaN floats"),
            },
        }
    }

    /// Exact comparison of an `i64` against an `f64`.
    ///
    /// Casting the integer to `f64` would lose precision above 2^53 and
    /// make the order non-transitive; instead the float is decomposed
    /// and compared exactly. NaN sorts greater than every integer.
    pub fn cmp_int_float(a: i64, b: f64) -> Ordering {
        if b.is_nan() {
            return Ordering::Less;
        }
        // 2^63 and -2^63 are exactly representable as f64.
        const TWO63: f64 = 9_223_372_036_854_775_808.0;
        if b >= TWO63 {
            return Ordering::Less;
        }
        if b < -TWO63 {
            return Ordering::Greater;
        }
        let bt = b.trunc();
        // `bt` is an integer-valued f64 in [-2^63, 2^63), so the cast is
        // exact (for bt == -2^63 the cast saturates to i64::MIN, which is
        // the correct value).
        let bi = bt as i64;
        match a.cmp(&bi) {
            Ordering::Equal => {
                // Same integer part: the fraction decides.
                if b > bt {
                    Ordering::Less
                } else if b < bt {
                    Ordering::Greater
                } else {
                    Ordering::Equal
                }
            }
            o => o,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => Value::cmp_f64(*a, *b),
            (Int(a), Float(b)) => Value::cmp_int_float(*a, *b),
            (Float(a), Int(b)) => Value::cmp_int_float(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Ref(a), Ref(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            // Int/Float must hash consistently with Int(1) == Float(1.0):
            // integer-valued floats in i64 range hash as their integer.
            Value::Int(i) => {
                0u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => Value::hash_float(*f, state),
            Value::Str(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::Ref(r) => r.hash(state),
            Value::Timestamp(t) => t.hash(state),
            Value::List(l) => l.hash(state),
        }
    }
}

impl Value {
    fn hash_float<H: std::hash::Hasher>(f: f64, state: &mut H) {
        use std::hash::Hash;
        const TWO63: f64 = 9_223_372_036_854_775_808.0;
        if f.is_finite() && f.trunc() == f && (-TWO63..TWO63).contains(&f) {
            // Equal to Int(f as i64) under Ord, so must hash identically.
            0u8.hash(state);
            (f as i64).hash(state);
        } else {
            // Normalize all NaNs to one bit pattern so Hash matches Eq.
            let bits = if f.is_nan() {
                f64::NAN.to_bits()
            } else {
                f.to_bits()
            };
            1u8.hash(state);
            bits.hash(state);
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "0x{}", hex(b)),
            Value::Ref(r) => write!(f, "{r}"),
            Value::Timestamp(t) => write!(f, "@{t}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<ObjectId> for Value {
    fn from(id: ObjectId) -> Self {
        Value::Ref(id)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(2.5) > Value::Int(2));
        assert_eq!(hash_of(&Value::Int(1)), hash_of(&Value::Float(1.0)));
    }

    #[test]
    fn nan_total_order() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert!(nan > Value::Float(f64::INFINITY));
        assert!(Value::Float(0.0) < nan);
        assert_eq!(hash_of(&nan), hash_of(&Value::Float(f64::NAN)));
    }

    #[test]
    fn negative_zero_equals_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn cross_type_ordering_is_by_rank() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::Str(String::new()));
        assert!(Value::Str("z".into()) < Value::Ref(ObjectId(0)));
    }

    #[test]
    fn conformance_widens_int_to_float() {
        assert!(Value::Int(3).conforms_to(ValueType::Float));
        assert!(!Value::Float(3.0).conforms_to(ValueType::Int));
        assert!(Value::Null.conforms_to(ValueType::Str));
        assert!(Value::Str("x".into()).conforms_to(ValueType::Str));
    }

    #[test]
    fn accessors_and_errors() {
        assert_eq!(Value::Int(5).as_int().unwrap(), 5);
        assert_eq!(Value::Int(5).as_float().unwrap(), 5.0);
        assert!(Value::Str("x".into()).as_int().is_err());
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(
            Value::Ref(ObjectId(9)).as_ref_id().unwrap(),
            ObjectId(9)
        );
    }

    #[test]
    fn display_round_readability() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("hi".into()).to_string(), "\"hi\"");
        assert_eq!(Value::Bytes(vec![0xab, 0x01]).to_string(), "0xab01");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Bool(false)]).to_string(),
            "[1, false]"
        );
    }

    #[test]
    fn int_float_comparison_is_exact_beyond_2_pow_53() {
        // 2^53 and 2^53 + 1 both cast to the same f64; the order must
        // still distinguish them.
        let big = 1i64 << 53;
        let f = Value::Float((1u64 << 53) as f64);
        assert_eq!(Value::Int(big), f);
        assert!(Value::Int(big + 1) > f);
        assert!(f < Value::Int(big + 1));
        // Transitivity probe: Int(2^53) == Float(2^53) < Int(2^53+1).
        assert!(Value::Int(big) < Value::Int(big + 1));

        // Extremes.
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        assert!(Value::Int(i64::MIN) > Value::Float(f64::NEG_INFINITY));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Int(0) < Value::Float(0.5));
        assert!(Value::Int(1) > Value::Float(0.5));
        assert!(Value::Int(-1) < Value::Float(-0.5));
        assert_eq!(Value::Int(0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Int(0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn huge_equal_int_float_hash_consistently() {
        let k = 1i64 << 60; // exactly representable as f64
        let f = (1u64 << 60) as f64;
        assert_eq!(Value::Int(k), Value::Float(f));
        assert_eq!(hash_of(&Value::Int(k)), hash_of(&Value::Float(f)));
    }

    #[test]
    fn list_ordering_is_lexicographic() {
        let a = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::List(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::List(vec![Value::Int(1)]);
        assert!(a < b);
        assert!(c < a);
    }
}
