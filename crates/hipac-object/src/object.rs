//! Object records and their durable serialization.

use hipac_common::codec::{get_uvarint, get_value, put_uvarint, put_value};
use hipac_common::{ClassId, HipacError, Result, Value};
use std::sync::Arc;

/// One object instance: its concrete class plus one value per slot of
/// that class's full attribute layout.
///
/// A row version is immutable and shared: the version store, every
/// reader and the operation and event payloads hold the same
/// allocation, so cloning a record bumps a reference count. A new
/// version is a new allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRecord {
    pub class: ClassId,
    pub values: Arc<[Value]>,
}

impl ObjectRecord {
    /// Construct a record.
    pub fn new(class: ClassId, values: impl Into<Arc<[Value]>>) -> Self {
        ObjectRecord {
            class,
            values: values.into(),
        }
    }

    /// Serialize for the durable store.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + 16 * self.values.len());
        put_uvarint(&mut buf, self.class.raw());
        put_uvarint(&mut buf, self.values.len() as u64);
        for v in self.values.iter() {
            put_value(&mut buf, v);
        }
        buf
    }

    /// Inverse of [`ObjectRecord::encode`].
    pub fn decode(buf: &[u8]) -> Result<ObjectRecord> {
        let mut pos = 0;
        let class = ClassId(get_uvarint(buf, &mut pos)?);
        let n = get_uvarint(buf, &mut pos)? as usize;
        if n > buf.len().saturating_sub(pos) {
            return Err(HipacError::Corruption("object arity exceeds input".into()));
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(get_value(buf, &mut pos)?);
        }
        if pos != buf.len() {
            return Err(HipacError::Corruption(
                "trailing bytes after object record".into(),
            ));
        }
        Ok(ObjectRecord::new(class, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let rec = ObjectRecord::new(
            ClassId(7),
            vec![
                Value::from("XRX"),
                Value::from(49.5),
                Value::Null,
                Value::List(vec![Value::Int(1)]),
            ],
        );
        let enc = rec.encode();
        assert_eq!(ObjectRecord::decode(&enc).unwrap(), rec);
    }

    #[test]
    fn empty_record_roundtrip() {
        let rec = ObjectRecord::new(ClassId(0), vec![]);
        assert_eq!(ObjectRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn truncation_is_an_error() {
        let rec = ObjectRecord::new(ClassId(1), vec![Value::from("hello")]);
        let enc = rec.encode();
        for cut in 0..enc.len() {
            assert!(ObjectRecord::decode(&enc[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let rec = ObjectRecord::new(ClassId(1), vec![Value::Int(3)]);
        let mut enc = rec.encode();
        enc.push(1);
        assert!(ObjectRecord::decode(&enc).is_err());
    }
}
