//! A fast hasher for id keys.
//!
//! Transaction, object, class, rule and event ids are 64-bit integers,
//! most of them handed out by monotone counters
//! ([`crate::id::IdAllocator`]). Hashing them with `std`'s default
//! SipHash-1-3 costs more than the table probe it serves. [`IdHasher`]
//! folds each 64-bit word in with the multiply-rotate step of rustc's
//! `FxHasher`, `hash = (hash.rotate_left(5) ^ word) * SEED`: one id
//! costs one multiply.
//!
//! Not every id is the engine's choice, though. The wire's `Update` and
//! `Delete` commands carry a raw object id, and the object store takes
//! that id's lock before it checks that the object exists, so a client
//! picks keys of the lock table. An unkeyed Fx hash would let it aim
//! them: the low bits of the product depend only on the low bits of
//! the id, so ids that differ only in high bits share hashbrown's start
//! bucket at any table size. [`IdHasher`] is therefore keyed: its state
//! starts at a word drawn once per process from `std`'s `RandomState`
//! instead of zero, and [`Hasher::finish`] runs the state through
//! murmur3's 64-bit finalizer (two multiplies, three shift-XORs), a
//! bijection in which every input bit reaches every output bit, so
//! high bits reach the low bits hashbrown indexes buckets with. For one
//! id word after a fixed tag the state is a bijection of the id, so
//! distinct ids get distinct hashes, and which of them share buckets
//! depends on a key a client does not know.
//!
//! The keys do not help when a client picks two words of one key: ids
//! that differ in the top bit of the first word and in bit 4 of the
//! second reach the same state whatever the keys. [`IdMap`] and
//! [`IdSet`] are the `std` collections on this hasher. The hashing
//! policy (DESIGN.md § "Hashing policy") is: key a map on them only
//! when every key is an id, or a tuple of ids of which a client picks
//! at most one. Maps keyed by a name or a data value keep
//! `RandomState`, since a client picks every word of those. A key type that
//! mixes ids and names, such as the object layer's lock key, hashes its
//! names through [`name_digest`], a keyed digest drawn from one
//! process-wide `RandomState`, and feeds only that digest to the id
//! hasher.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// The multiplier of rustc's 64-bit `FxHasher` (odd, so the multiply
/// is a bijection on `u64`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The keys of this process: those of [`name_digest`], and
/// [`IdHasher`]'s starting state.
struct ProcessKeys {
    names: RandomState,
    start: u64,
}

#[inline]
fn process_keys() -> &'static ProcessKeys {
    static KEYS: OnceLock<ProcessKeys> = OnceLock::new();
    KEYS.get_or_init(|| {
        let names = RandomState::new();
        let start = RandomState::new().hash_one(0u64);
        ProcessKeys { names, start }
    })
}

/// Keyed multiply-rotate hasher for ids. See the module docs for when
/// it may be used.
#[derive(Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl Default for IdHasher {
    #[inline]
    fn default() -> Self {
        IdHasher {
            hash: process_keys().start,
        }
    }
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The `BuildHasher` of [`IdHasher`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by ids.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of ids.
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

/// A keyed 64-bit digest of `name`, from one `RandomState` drawn once
/// per process. A key type that mixes names with ids hashes its names
/// through this, so names chosen outside the engine never reach
/// [`IdHasher`] as raw bytes.
pub fn name_digest(name: &str) -> u64 {
    process_keys().names.hash_one(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ClassId, TxnId};
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    /// Distinct values of `bits(hash)` over the ids `id(0..4096)`.
    fn distinct(id: impl Fn(u64) -> u64, bits: impl Fn(u64) -> u64) -> usize {
        (0..4096)
            .map(|i| bits(hash_of(TxnId(id(i)))))
            .collect::<HashSet<_>>()
            .len()
    }

    /// hashbrown keeps the top 7 bits of a hash as a slot's tag and
    /// indexes buckets with the low bits. Finished hashes fall like
    /// random ones: 4 096 ids show all 128 tags, reach about 1 − 1/e ≈ 63 % of
    /// 4 096 buckets (2 589 expected, standard deviation about 18), and
    /// every one of 256 buckets.
    fn assert_spread(what: &str, id: impl Fn(u64) -> u64 + Copy) {
        let tags = distinct(id, |h| h >> 57);
        assert!(tags >= 120, "{what}: {tags} distinct tags of 128");
        let buckets = distinct(id, |h| h & 4095);
        assert!(buckets >= 2400, "{what}: {buckets} of 4096 buckets");
        let small = distinct(id, |h| h & 255);
        assert!(small >= 250, "{what}: {small} of 256 buckets");
    }

    #[test]
    fn sequential_ids_fill_hashbrowns_tag_and_bucket_bits() {
        for start in [0, 1, 1 << 20, 1 << 40, u64::MAX - 4096] {
            assert_spread(&format!("from {start}"), move |i| start + i);
        }
    }

    #[test]
    fn ids_differing_only_in_high_bits_spread_over_low_bucket_bits() {
        // The multiply-rotate step alone leaves the low bits of these
        // states equal: unfinished, every id would start its probe at
        // one bucket.
        for shift in [32, 40, 52] {
            for low in [0, 7, 0xdead_beef] {
                assert_spread(&format!("<< {shift} | {low}"), move |i| (i << shift) | low);
            }
        }
    }

    #[test]
    fn the_hasher_is_keyed() {
        let mut h = IdHasher::default();
        assert_ne!(h.hash, 0);
        assert_eq!(h.hash, IdHasher::default().hash, "one key per process");
        h.write_u64(7);
        assert_ne!(h.hash, 7u64.wrapping_mul(SEED));
    }

    #[test]
    fn two_client_chosen_words_can_collide_whatever_the_keys() {
        // Why a tuple key may carry at most one client-chosen id, and
        // names keep `RandomState`: flipping the top bit of the first
        // word flips bit 4 of the state the second word meets.
        let (a, b) = (12_345u64, 678u64);
        assert_eq!(
            hash_of((TxnId(a), TxnId(b))),
            hash_of((TxnId(a ^ 1 << 63), TxnId(b ^ 1 << 4)))
        );
    }

    #[test]
    fn tuples_of_ids_spread_over_both_components() {
        let hashes: HashSet<u64> = (0..64u64)
            .flat_map(|c| (0..64usize).map(move |slot| hash_of((ClassId(c), slot))))
            .collect();
        assert_eq!(hashes.len(), 64 * 64);
        let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(tags.len() >= 120, "{} distinct tags of 128", tags.len());
    }

    #[test]
    fn equal_keys_hash_equal_and_bytes_are_all_read() {
        assert_eq!(hash_of(TxnId(7)), hash_of(TxnId(7)));
        assert_ne!(hash_of(TxnId(7)), hash_of(TxnId(8)));
        // Every byte of a 13-byte string reaches the hash, tail included.
        let base = hash_of("abcdefghijklm");
        assert_ne!(base, hash_of("abcdefghijklx"));
        assert_ne!(base, hash_of("xbcdefghijklm"));
    }

    #[test]
    fn name_digest_is_stable_within_the_process_and_keyed() {
        assert_eq!(name_digest("quote"), name_digest("quote"));
        assert_ne!(name_digest("quote"), name_digest("quotes"));
        // Keyed: not the id hasher's digest of the same bytes.
        assert_ne!(name_digest("quote"), hash_of("quote"));
    }

    #[test]
    fn id_maps_behave_as_maps() {
        let mut m: IdMap<TxnId, u32> = IdMap::default();
        for i in 0..1000 {
            m.insert(TxnId(i), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000).all(|i| m[&TxnId(i)] == i as u32));
        let s: IdSet<TxnId> = (0..10).map(TxnId).collect();
        assert!(s.contains(&TxnId(9)) && !s.contains(&TxnId(10)));
    }
}
