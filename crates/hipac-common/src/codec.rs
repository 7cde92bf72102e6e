//! Compact binary codec: the primitives, and the one [`Wire`] trait that
//! every wire frame and durable record is written with.
//!
//! Used by the storage engine to serialize object records into slotted
//! pages, by the write-ahead log for before/after images, and through
//! [`Wire`] by the network protocol, the rule record and the catalog
//! record. The format is self-describing (a one-byte tag per value) and
//! length-prefixed, so records can be decoded without schema access —
//! which is what recovery needs.
//!
//! Integers use a zig-zag varint encoding so small values (the common
//! case for ids and counters) take one byte.
//!
//! A struct's or enum's [`Wire`] impl is declared with
//! [`wire_struct!`](crate::wire_struct) or
//! [`wire_enum!`](crate::wire_enum): its field order and its variant
//! tags are written once, and the encoder and decoder are generated
//! from that one list. Tags are stable on the wire and on disk: never
//! renumber, only append.

use crate::error::{HipacError, Result};
use crate::id::ObjectId;
use crate::value::Value;
use std::collections::HashMap;

// Value tags. Stable on disk: never renumber, only append.
const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_REF: u8 = 7;
const TAG_TIMESTAMP: u8 = 8;
const TAG_LIST: u8 = 9;

/// Append an unsigned LEB128 varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint, advancing `pos`.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| HipacError::Corruption("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(HipacError::Corruption("varint overflow".into()));
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            // Reject non-canonical zero continuation bytes beyond 64 bits.
            if shift == 63 && byte > 1 {
                return Err(HipacError::Corruption("varint overflow".into()));
            }
            return Ok(result);
        }
        shift += 7;
    }
}

/// Zig-zag encode a signed integer so small magnitudes are small.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a signed varint.
pub fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, zigzag(v));
}

/// Read a signed varint, advancing `pos`.
pub fn get_ivarint(buf: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(get_uvarint(buf, pos)?))
}

/// Append a length-prefixed byte slice.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_uvarint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

/// Read a length-prefixed byte slice, advancing `pos`.
pub fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = get_uvarint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .ok_or_else(|| HipacError::Corruption("length overflow".into()))?;
    if end > buf.len() {
        return Err(HipacError::Corruption("truncated byte string".into()));
    }
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

/// Read one byte (a tag or a flag byte), advancing `pos`.
pub fn get_byte(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| HipacError::Corruption("truncated tag".into()))?;
    *pos += 1;
    Ok(b)
}

/// Append one [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(false) => buf.push(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            buf.push(TAG_INT);
            put_ivarint(buf, *i);
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            s.put(buf);
        }
        Value::Bytes(b) => {
            buf.push(TAG_BYTES);
            put_bytes(buf, b);
        }
        Value::Ref(id) => {
            buf.push(TAG_REF);
            id.put(buf);
        }
        Value::Timestamp(t) => {
            buf.push(TAG_TIMESTAMP);
            put_uvarint(buf, *t);
        }
        Value::List(items) => {
            buf.push(TAG_LIST);
            items.put(buf);
        }
    }
}

/// Read one [`Value`], advancing `pos`.
pub fn get_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    match get_byte(buf, pos)? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL_FALSE => Ok(Value::Bool(false)),
        TAG_BOOL_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(get_ivarint(buf, pos)?)),
        TAG_FLOAT => {
            let end = *pos + 8;
            if end > buf.len() {
                return Err(HipacError::Corruption("truncated float".into()));
            }
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&buf[*pos..end]);
            *pos = end;
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(raw))))
        }
        TAG_STR => Ok(Value::Str(String::get(buf, pos)?)),
        TAG_BYTES => Ok(Value::Bytes(get_bytes(buf, pos)?.to_vec())),
        TAG_REF => Ok(Value::Ref(ObjectId::get(buf, pos)?)),
        TAG_TIMESTAMP => Ok(Value::Timestamp(get_uvarint(buf, pos)?)),
        TAG_LIST => Ok(Value::List(Vec::get(buf, pos)?)),
        other => Err(HipacError::Corruption(format!("unknown value tag {other}"))),
    }
}

/// Encode a row (sequence of values) with a leading count.
pub fn encode_row(values: &[Value]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 * values.len() + 2);
    put_uvarint(&mut buf, values.len() as u64);
    for v in values {
        put_value(&mut buf, v);
    }
    buf
}

/// Decode a row produced by [`encode_row`]. Fails on trailing garbage.
pub fn decode_row(buf: &[u8]) -> Result<Vec<Value>> {
    from_bytes(buf)
}

/// A type with one binary encoding. Decoding rejects what no `put`
/// writes and a lax reader would misread: an integer that does not fit
/// its type (instead of truncating it) and a flag byte other than 0 or
/// 1 (instead of reading it as `false`).
pub trait Wire: Sized {
    /// Append the encoding of `self`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Read one value, advancing `pos`.
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self>;
}

/// Encode one value into a fresh buffer.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    v.put(&mut buf);
    buf
}

/// Decode one value that fills `buf` exactly; trailing bytes are
/// corruption.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Result<T> {
    let mut pos = 0;
    let v = T::get(buf, &mut pos)?;
    if pos != buf.len() {
        return Err(HipacError::Corruption(format!(
            "trailing {} bytes after record",
            buf.len() - pos
        )));
    }
    Ok(v)
}

/// A decoded element count, rejected before anything is allocated when
/// it exceeds the input left: each element takes at least one byte.
fn get_count(buf: &[u8], pos: &mut usize) -> Result<usize> {
    let n = get_uvarint(buf, pos)?;
    if n > buf.len().saturating_sub(*pos) as u64 {
        return Err(HipacError::Corruption("count exceeds input".into()));
    }
    Ok(n as usize)
}

/// Uvarint.
impl Wire for u64 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_uvarint(buf, *self);
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        get_uvarint(buf, pos)
    }
}

/// Uvarint; a value past `u32::MAX` is corruption, not truncated.
impl Wire for u32 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_uvarint(buf, u64::from(*self));
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let v = get_uvarint(buf, pos)?;
        u32::try_from(v).map_err(|_| HipacError::Corruption(format!("{v} overflows u32")))
    }
}

/// Uvarint; a value past `usize::MAX` is corruption.
impl Wire for usize {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_uvarint(buf, *self as u64);
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let v = get_uvarint(buf, pos)?;
        usize::try_from(v).map_err(|_| HipacError::Corruption(format!("{v} overflows usize")))
    }
}

/// One byte, 0 or 1; any other byte is corruption.
impl Wire for bool {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        match get_byte(buf, pos)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(HipacError::Corruption(format!("bad bool byte {other}"))),
        }
    }
}

/// Length-prefixed UTF-8.
impl Wire for String {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        std::str::from_utf8(get_bytes(buf, pos)?)
            .map(str::to_owned)
            .map_err(|_| HipacError::Corruption("invalid utf-8 in string".into()))
    }
}

/// Length-prefixed bytes.
impl Wire for Vec<u8> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self);
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        Ok(get_bytes(buf, pos)?.to_vec())
    }
}

impl Wire for Value {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_value(buf, self);
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        get_value(buf, pos)
    }
}

/// A count, then the entries in sorted key order, so equal maps encode
/// identically.
impl Wire for HashMap<String, Value> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_uvarint(buf, self.len() as u64);
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        for k in keys {
            k.put(buf);
            put_value(buf, &self[k]);
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let n = get_count(buf, pos)?;
        let mut map = HashMap::with_capacity(n);
        for _ in 0..n {
            map.insert(String::get(buf, pos)?, get_value(buf, pos)?);
        }
        Ok(map)
    }
}

/// A flag byte (0 absent, 1 present), then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.put(buf);
            }
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        match get_byte(buf, pos)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(buf, pos)?)),
            other => Err(HipacError::Corruption(format!("bad option flag {other}"))),
        }
    }
}

/// A count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_uvarint(buf, self.len() as u64);
        for v in self {
            v.put(buf);
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let n = get_count(buf, pos)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(buf, pos)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (**self).put(buf);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        Ok(Box::new(T::get(buf, pos)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self> {
        Ok((A::get(buf, pos)?, B::get(buf, pos)?))
    }
}

/// True when no tag appears twice in `tags`.
/// [`wire_enum!`](crate::wire_enum) asserts it at compile time.
#[doc(hidden)]
pub const fn distinct_tags(tags: &[(u8, &str)]) -> bool {
    let mut i = 0;
    while i < tags.len() {
        let mut j = i + 1;
        while j < tags.len() {
            if tags[i].0 == tags[j].0 {
                return false;
            }
            j += 1;
        }
        i += 1;
    }
    true
}

/// Declares a struct's [`Wire`](crate::codec::Wire) impl: its fields,
/// in wire order, each written with its own impl. Two forms:
///
/// - `wire_struct! { Query { class, predicate, projection } }` for a
///   struct defined elsewhere in the crate. Leaving a field out is a
///   compile error.
/// - `wire_struct! { #[derive(..)] pub struct S { pub a: u64, .. } }`
///   defines the struct too, so its field list is written once.
#[macro_export]
macro_rules! wire_struct {
    ($(#[$m:meta])* $vis:vis struct $name:ident {
        $($(#[$fm:meta])* $fvis:vis $f:ident: $t:ty,)*
    }) => {
        $(#[$m])* $vis struct $name { $($(#[$fm])* $fvis $f: $t,)* }
        $crate::wire_struct!($name { $($f),* });
    };
    ($name:ident { $($f:ident),* $(,)? }) => {
        impl $crate::codec::Wire for $name {
            fn put(&self, buf: &mut Vec<u8>) {
                let $name { $($f),* } = self;
                $($crate::codec::Wire::put($f, buf);)*
            }
            fn get(buf: &[u8], pos: &mut usize) -> $crate::Result<Self> {
                $(let $f = $crate::codec::Wire::get(buf, pos)?;)*
                ::core::result::Result::Ok($name { $($f),* })
            }
        }
    };
}

/// Declares an enum's [`Wire`](crate::codec::Wire) impl: one row per
/// variant, `tag => Variant,`, `tag => Variant { field, .. },` or
/// `tag => Variant(a, ..),`, fields in wire order (each row ends with a
/// comma). A variant writes its tag byte, then its fields. A variant without a row is a compile error (the encoder's
/// match is exhaustive), and so is a tag used twice.
///
/// An optional last row `_ => Variant(Inner)` declares a variant whose
/// payload is itself a tagged enum sharing this tag space: it writes
/// `Inner`'s tag in place of its own, and every tag without a row of
/// its own decodes as `Inner`.
///
/// Also emits `WIRE_TAGS`, the tag → variant-name table, which the
/// golden-bytes test walks to require a sample of every tag.
#[macro_export]
macro_rules! wire_enum {
    ($name:ident {
        $($tag:literal => $v:ident $({ $($sf:ident),* })? $(($($tf:ident),*))?,)*
        $(_ => $dv:ident($dty:ty),)?
    }) => {
        impl $name {
            /// Tag → variant name, in declaration order.
            pub const WIRE_TAGS: &'static [(u8, &'static str)] = &[$(($tag, stringify!($v))),*];
        }
        const _: () = assert!($crate::codec::distinct_tags($name::WIRE_TAGS), "duplicate wire tag");
        impl $crate::codec::Wire for $name {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($name::$v $({ $($sf),* })? $(($($tf),*))? => {
                        buf.push($tag);
                        $($($crate::codec::Wire::put($sf, buf);)*)?
                        $($($crate::codec::Wire::put($tf, buf);)*)?
                    })*
                    $($name::$dv(inner) => $crate::codec::Wire::put(inner, buf),)?
                }
            }
            fn get(buf: &[u8], pos: &mut usize) -> $crate::Result<Self> {
                ::core::result::Result::Ok(match $crate::codec::get_byte(buf, pos)? {
                    $($tag => {
                        $($(let $sf = $crate::codec::Wire::get(buf, pos)?;)*)?
                        $($(let $tf = $crate::codec::Wire::get(buf, pos)?;)*)?
                        $name::$v $({ $($sf),* })? $(($($tf),*))?
                    })*
                    tag => $crate::wire_enum!(@other $name tag buf pos $($dv)?),
                })
            }
        }
    };
    (@other $name:ident $tag:ident $buf:ident $pos:ident) => {
        return ::core::result::Result::Err($crate::HipacError::Corruption(format!(
            concat!("unknown ", stringify!($name), " tag {}"),
            $tag
        )))
    };
    (@other $name:ident $tag:ident $buf:ident $pos:ident $dv:ident) => {{
        let _ = $tag;
        *$pos -= 1;
        $name::$dv($crate::codec::Wire::get($buf, $pos)?)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let mut buf = Vec::new();
        put_value(&mut buf, &v);
        let mut pos = 0;
        let back = get_value(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(v, back);
    }

    #[test]
    fn value_roundtrips() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::Int(0));
        roundtrip(Value::Int(-1));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::Float(3.5));
        roundtrip(Value::Float(-0.0));
        roundtrip(Value::Str("héllo".into()));
        roundtrip(Value::Bytes(vec![0, 255, 128]));
        roundtrip(Value::Ref(ObjectId(u64::MAX)));
        roundtrip(Value::Timestamp(123456789));
        roundtrip(Value::List(vec![
            Value::Int(1),
            Value::List(vec![Value::Str("nested".into())]),
        ]));
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Float(f64::NAN));
        let mut pos = 0;
        match get_value(&buf, &mut pos).unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -64, 63] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn small_ints_are_one_byte() {
        let mut buf = Vec::new();
        put_ivarint(&mut buf, 5);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Str("hello world".into()));
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(get_value(&buf[..cut], &mut pos).is_err());
        }
    }

    #[test]
    fn unknown_tag_is_corruption() {
        let buf = vec![200u8];
        let mut pos = 0;
        assert!(matches!(
            get_value(&buf, &mut pos),
            Err(HipacError::Corruption(_))
        ));
    }

    #[test]
    fn hostile_list_length_rejected() {
        let mut buf = vec![TAG_LIST];
        put_uvarint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(get_value(&buf, &mut pos).is_err());
    }

    #[test]
    fn row_roundtrip_and_trailing_garbage() {
        let row = vec![Value::Int(1), Value::Str("a".into()), Value::Null];
        let mut buf = encode_row(&row);
        assert_eq!(decode_row(&buf).unwrap(), row);
        buf.push(0);
        assert!(decode_row(&buf).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = vec![TAG_STR];
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut pos = 0;
        assert!(get_value(&buf, &mut pos).is_err());
    }
}
