//! Strongly typed identifiers.
//!
//! Every kind of entity in the system (classes, objects, attributes,
//! events, rules, transactions) gets its own newtype over `u64`, so an
//! `ObjectId` can never be accidentally used where a `TxnId` is expected.
//! All identifiers are allocated by monotone counters owned by the
//! component that creates the entity.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
        pub struct $name(pub u64);

        impl $name {
            /// Raw numeric value of the identifier.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }

        /// Uvarint.
        impl crate::codec::Wire for $name {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                crate::codec::put_uvarint(buf, self.0);
            }
            #[inline]
            fn get(buf: &[u8], pos: &mut usize) -> crate::Result<Self> {
                crate::codec::get_uvarint(buf, pos).map($name)
            }
        }
    };
}

define_id!(
    /// Identifier of a class (object type) in the Object Manager catalog.
    ClassId, "class#"
);
define_id!(
    /// Identifier of an object instance.
    ObjectId, "obj#"
);
define_id!(
    /// Identifier of an attribute within a class.
    AttrId, "attr#"
);
define_id!(
    /// Identifier of a defined event (primitive or composite).
    EventId, "event#"
);
define_id!(
    /// Identifier of an ECA rule. Rules are first-class objects (§2 of
    /// the paper), so every rule also has an `ObjectId` in the system
    /// rule class; the `RuleId` is the rule-catalog key.
    RuleId, "rule#"
);
define_id!(
    /// Identifier of a transaction (top-level or nested).
    TxnId, "txn#"
);

/// A monotone, thread-safe allocator of `u64` identifiers.
///
/// The first identifier handed out is `first`; zero is conventionally
/// reserved as an "invalid"/sentinel value by callers that need one.
#[derive(Debug)]
pub struct IdAllocator {
    next: AtomicU64,
}

impl IdAllocator {
    /// Create an allocator whose first allocated id is `first`.
    pub const fn new(first: u64) -> Self {
        IdAllocator {
            next: AtomicU64::new(first),
        }
    }

    /// Allocate the next identifier.
    #[inline]
    pub fn alloc(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Advance the allocator so that it will never hand out `floor` or
    /// anything below it. Used by recovery to resume after a restart.
    pub fn bump_to(&self, floor: u64) {
        let mut cur = self.next.load(Ordering::Relaxed);
        while cur <= floor {
            match self.next.compare_exchange_weak(
                cur,
                floor + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The value the next call to [`IdAllocator::alloc`] would return.
    pub fn peek(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

impl Default for IdAllocator {
    fn default() -> Self {
        IdAllocator::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{}", ObjectId(7)), "obj#7");
        assert_eq!(format!("{:?}", TxnId(3)), "txn#3");
        assert_eq!(format!("{}", RuleId(12)), "rule#12");
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; here we just check basic trait
        // behaviour (ordering, hashing, conversion).
        let a = ClassId::from(1);
        let b = ClassId::from(2);
        assert!(a < b);
        assert_eq!(a.raw(), 1);
    }

    #[test]
    fn allocator_is_monotone() {
        let alloc = IdAllocator::new(1);
        let a = alloc.alloc();
        let b = alloc.alloc();
        let c = alloc.alloc();
        assert!(a < b && b < c);
        assert_eq!(alloc.peek(), c + 1);
    }

    #[test]
    fn allocator_bump_to_skips_used_range() {
        let alloc = IdAllocator::new(1);
        alloc.bump_to(100);
        assert_eq!(alloc.alloc(), 101);
        // bump below the current floor is a no-op
        alloc.bump_to(5);
        assert_eq!(alloc.alloc(), 102);
    }

    #[test]
    fn allocator_is_thread_safe_and_unique() {
        let alloc = Arc::new(IdAllocator::new(1));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let alloc = Arc::clone(&alloc);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| alloc.alloc()).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(seen.len(), 8000);
    }
}
