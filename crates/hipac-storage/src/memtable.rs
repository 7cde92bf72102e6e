//! The committed changes since the last checkpoint, in key order.
//!
//! [`crate::store::DurableStore`] writes no data file at commit: each
//! logged op is staged here instead, as a value or a tombstone for its
//! key, and the checkpoint writes the table into the new image it
//! writes anyway. Reads see the store through [`Merge`], the table laid
//! over the image's key-ordered scan (see [`crate::image`]).
//!
//! The table's payload is bounded by the WAL bytes since the last
//! checkpoint — every byte in it came from the log — and two rules keep
//! it near that payload:
//!
//! * a key the image does not hold, once deleted, leaves no entry: a put
//!   then a delete within one cycle (the reply journal's and the push
//!   outbox's rows) costs nothing until the checkpoint. So a tombstone
//!   also records that the image holds its key. A delete asks the
//!   image's in-memory directory (unless the key is already a
//!   tombstone); a put never asks;
//! * an entry is one allocation holding its key, its tombstone flag and
//!   its value, so no side set of keys is kept.

use crate::image::Image;
use hipac_common::Result;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::iter::Peekable;
use std::ops::Bound;

/// The first byte of a deleted key's entry (which carries no value);
/// a value's entry starts with 0.
const TOMBSTONE: u8 = 1;
/// The tombstone byte and the key's length (`u32`, little-endian).
const HEADER: usize = 5;

/// One staged key in one allocation: the header, the key, the value.
pub(crate) struct Entry(Box<[u8]>);

impl Entry {
    fn new(key: &[u8], value: Option<&[u8]>) -> Entry {
        let body = value.unwrap_or_default();
        let mut bytes = Vec::with_capacity(HEADER + key.len() + body.len());
        bytes.push(if value.is_some() { 0 } else { TOMBSTONE });
        let key_len = u32::try_from(key.len()).expect("a key shorter than 4 GiB");
        bytes.extend_from_slice(&key_len.to_le_bytes());
        bytes.extend_from_slice(key);
        bytes.extend_from_slice(body);
        Entry(bytes.into_boxed_slice())
    }

    fn key_end(&self) -> usize {
        let len = u32::from_le_bytes(self.0[1..HEADER].try_into().expect("four bytes"));
        HEADER + len as usize
    }

    fn key(&self) -> &[u8] {
        &self.0[HEADER..self.key_end()]
    }

    /// The staged value; `None` for a tombstone.
    fn value(&self) -> Option<&[u8]> {
        (self.0[0] != TOMBSTONE).then(|| &self.0[self.key_end()..])
    }
}

// Entries are ordered, compared and looked up by key alone.
impl Borrow<[u8]> for Entry {
    fn borrow(&self) -> &[u8] {
        self.key()
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> Ordering {
        self.key().cmp(other.key())
    }
}

/// The staged changes over one image.
#[derive(Default)]
pub(crate) struct Memtable {
    entries: BTreeSet<Entry>,
}

impl Memtable {
    /// Stage a put (`Some(value)`) or a delete (`None`) of `key`. A
    /// delete leaves a tombstone only when `image` holds the key.
    pub(crate) fn stage(&mut self, image: &Image, key: &[u8], value: Option<&[u8]>) {
        match value {
            Some(_) => {
                self.entries.replace(Entry::new(key, value));
            }
            None if self.get(key) == Some(None) => {}
            None if image.contains(key) => {
                self.entries.replace(Entry::new(key, None));
            }
            None => {
                self.entries.remove(key);
            }
        }
    }

    /// `None` when `key` is not staged (the image answers), otherwise
    /// its staged value, `Some(None)` for a delete.
    pub(crate) fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.entries.get(key).map(Entry::value)
    }

    /// The staged entries with keys in the bounds, in key order.
    pub(crate) fn range<'a>(
        &'a self,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> impl Iterator<Item = &'a Entry> {
        // `BTreeSet::range` panics on bounds that admit no key.
        let empty = match (start, end) {
            (Bound::Included(s), Bound::Included(e)) => s > e,
            (Bound::Included(s) | Bound::Excluded(s), Bound::Excluded(e))
            | (Bound::Excluded(s), Bound::Included(e)) => s >= e,
            _ => false,
        };
        (!empty)
            .then(|| self.entries.range::<[u8], _>((start, end)))
            .into_iter()
            .flatten()
    }

    /// Live keys minus the image's: each staged value whose key the
    /// image lacks adds one, each tombstone takes one away.
    pub(crate) fn len_delta(&self, image: &Image) -> isize {
        let mut delta = 0;
        for entry in &self.entries {
            if entry.value().is_none() {
                delta -= 1;
            } else if !image.contains(entry.key()) {
                delta += 1;
            }
        }
        delta
    }

    /// The staged keys that hold a value, in key order.
    pub(crate) fn live_keys(&self) -> impl Iterator<Item = &[u8]> {
        self.entries
            .iter()
            .filter(|entry| entry.value().is_some())
            .map(Entry::key)
    }

    /// Number of staged keys.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Forget every staged change (the image now holds them).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// One live pair of a [`Merge`].
pub(crate) enum Live<'a> {
    /// A key and value read from the image.
    Image(Vec<u8>, Vec<u8>),
    /// A staged key and value.
    Staged(&'a [u8], &'a [u8]),
}

impl Live<'_> {
    pub(crate) fn pair(&self) -> (&[u8], &[u8]) {
        match self {
            Live::Image(key, value) => (key, value),
            Live::Staged(key, value) => (key, value),
        }
    }

    pub(crate) fn into_owned(self) -> (Vec<u8>, Vec<u8>) {
        match self {
            Live::Image(key, value) => (key, value),
            Live::Staged(key, value) => (key.to_vec(), value.to_vec()),
        }
    }
}

/// The key-ordered union of an image scan and the staged entries over
/// the same bounds: a staged entry shadows the image's entry for its
/// key, and a tombstone hides both.
pub(crate) struct Merge<'a, I: Iterator, S: Iterator<Item = &'a Entry>> {
    image: Peekable<I>,
    staged: Peekable<S>,
}

impl<'a, I, S> Merge<'a, I, S>
where
    I: Iterator<Item = Result<(Vec<u8>, Vec<u8>)>>,
    S: Iterator<Item = &'a Entry>,
{
    pub(crate) fn new(image: I, staged: S) -> Self {
        Merge {
            image: image.peekable(),
            staged: staged.peekable(),
        }
    }
}

impl<'a, I, S> Iterator for Merge<'a, I, S>
where
    I: Iterator<Item = Result<(Vec<u8>, Vec<u8>)>>,
    S: Iterator<Item = &'a Entry>,
{
    type Item = Result<Live<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let order = match (self.image.peek(), self.staged.peek()) {
                (None, None) => return None,
                (Some(Ok((key, _))), Some(entry)) => key.as_slice().cmp(entry.key()),
                // The image's entry comes first, and an error at once.
                (Some(_), _) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
            };
            match order {
                Ordering::Less => {
                    return self
                        .image
                        .next()
                        .map(|entry| entry.map(|(key, value)| Live::Image(key, value)))
                }
                Ordering::Equal => {
                    self.image.next();
                }
                Ordering::Greater => {}
            }
            let entry = self.staged.next()?;
            if let Some(value) = entry.value() {
                return Some(Ok(Live::Staged(entry.key(), value)));
            }
        }
    }
}
