//! Slotted-page record layout.
//!
//! A slotted region occupies the tail of a page starting at a caller
//! chosen `base` offset (heap pages reserve a small header in front for
//! the page chain). Layout, with offsets relative to `base`:
//!
//! ```text
//! +-----------+----------+---------------------+------------------+
//! | count u16 | free u16 | slot entries (4B ea)| ... free ... |records|
//! +-----------+----------+---------------------+------------------+
//! ```
//!
//! Each slot entry is `(offset u16, len u16)`; records grow downward
//! from the end of the page while the slot array grows upward. A slot
//! with `offset == 0` is a tombstone available for reuse (offset 0 is
//! the header, so no live record can be there). Deleting and updating
//! fragment the record area; [`SlottedPage::compact`] defragments.

use crate::page::{Page, PAGE_SIZE};

const HDR_COUNT: usize = 0;
const HDR_FREE_END: usize = 2;
const HDR_SIZE: usize = 4;
const SLOT_SIZE: usize = 4;

/// Mutable accessor for the slotted region of a page.
pub struct SlottedPage<'a> {
    page: &'a mut Page,
    base: usize,
}

/// Result of [`SlottedPage::update`].
#[derive(Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// Record updated in place (or relocated within the page).
    Done,
    /// Not enough space in this page even after compaction; the caller
    /// must relocate the record to another page.
    NoSpace,
}

impl<'a> SlottedPage<'a> {
    /// Wrap the slotted region of `page` starting at `base`.
    ///
    /// Call [`SlottedPage::init`] once on a fresh page before use.
    pub fn new(page: &'a mut Page, base: usize) -> Self {
        debug_assert!(base + HDR_SIZE < PAGE_SIZE);
        SlottedPage { page, base }
    }

    /// Initialize an empty slotted region.
    pub fn init(&mut self) {
        self.set_count(0);
        self.set_free_end(self.region_len());
    }

    fn region_len(&self) -> usize {
        PAGE_SIZE - self.base
    }

    fn count(&self) -> usize {
        self.page.get_u16(self.base + HDR_COUNT) as usize
    }

    fn set_count(&mut self, c: usize) {
        self.page.put_u16(self.base + HDR_COUNT, c as u16);
    }

    fn free_end(&self) -> usize {
        self.page.get_u16(self.base + HDR_FREE_END) as usize
    }

    fn set_free_end(&mut self, v: usize) {
        self.page.put_u16(self.base + HDR_FREE_END, v as u16);
    }

    fn slot(&self, i: usize) -> (usize, usize) {
        let off = self.base + HDR_SIZE + i * SLOT_SIZE;
        (
            self.page.get_u16(off) as usize,
            self.page.get_u16(off + 2) as usize,
        )
    }

    fn set_slot(&mut self, i: usize, rec_off: usize, len: usize) {
        let off = self.base + HDR_SIZE + i * SLOT_SIZE;
        self.page.put_u16(off, rec_off as u16);
        self.page.put_u16(off + 2, len as u16);
    }

    /// Bytes of contiguous free space between the slot array and the
    /// record area.
    pub fn contiguous_free(&self) -> usize {
        self.free_end()
            .saturating_sub(HDR_SIZE + self.count() * SLOT_SIZE)
    }

    /// Total reclaimable free space (after compaction), assuming a new
    /// slot entry would be needed.
    pub fn total_free(&self) -> usize {
        let live: usize = (0..self.count())
            .map(|i| self.slot(i))
            .filter(|(off, _)| *off != 0)
            .map(|(_, len)| len)
            .sum();
        self.region_len() - HDR_SIZE - self.count() * SLOT_SIZE - live
    }

    /// Largest record insertable into a completely empty region with
    /// `base` header reservation.
    pub fn max_record_len(base: usize) -> usize {
        PAGE_SIZE - base - HDR_SIZE - SLOT_SIZE
    }

    /// Number of slots (live + tombstones).
    pub fn slot_count(&self) -> usize {
        self.count()
    }

    /// Insert `data`, returning the slot number, or `None` if the page
    /// cannot hold it even after compaction.
    pub fn insert(&mut self, data: &[u8]) -> Option<u16> {
        let reuse = (0..self.count()).find(|&i| self.slot(i).0 == 0);
        let slot_cost = if reuse.is_some() { 0 } else { SLOT_SIZE };
        if self.contiguous_free() < data.len() + slot_cost {
            if self.total_free() < data.len() + slot_cost {
                return None;
            }
            self.compact();
            if self.contiguous_free() < data.len() + slot_cost {
                return None;
            }
        }
        let new_end = self.free_end() - data.len();
        self.page.put_slice(self.base + new_end, data);
        self.set_free_end(new_end);
        let idx = match reuse {
            Some(i) => i,
            None => {
                let i = self.count();
                self.set_count(i + 1);
                i
            }
        };
        // Record a non-zero offset even for empty records: `new_end` is
        // at least HDR_SIZE, so 0 stays reserved for tombstones.
        self.set_slot(idx, new_end, data.len());
        Some(idx as u16)
    }

    /// Read the record in `slot`, if live.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        Self::read(self.page, self.base, slot)
    }

    /// [`SlottedPage::get`] over a shared page image: readers need no
    /// write access (and so do not dirty a buffered page).
    pub fn read(page: &Page, base: usize, slot: u16) -> Option<&[u8]> {
        let count = page.get_u16(base + HDR_COUNT);
        if slot >= count {
            return None;
        }
        let entry = base + HDR_SIZE + slot as usize * SLOT_SIZE;
        let (off, len) = (
            page.get_u16(entry) as usize,
            page.get_u16(entry + 2) as usize,
        );
        (off != 0).then(|| page.get_slice(base + off, len))
    }

    /// Delete the record in `slot`. Returns false if it was not live.
    pub fn delete(&mut self, slot: u16) -> bool {
        let i = slot as usize;
        if i >= self.count() || self.slot(i).0 == 0 {
            return false;
        }
        self.set_slot(i, 0, 0);
        // Shrink the slot array if a tail of tombstones formed.
        let mut c = self.count();
        while c > 0 && self.slot(c - 1).0 == 0 {
            c -= 1;
        }
        self.set_count(c);
        true
    }

    /// Replace the record in `slot` with `data`, relocating within the
    /// page if needed.
    pub fn update(&mut self, slot: u16, data: &[u8]) -> UpdateOutcome {
        let i = slot as usize;
        if i >= self.count() || self.slot(i).0 == 0 {
            return UpdateOutcome::NoSpace;
        }
        let (off, len) = self.slot(i);
        if data.len() <= len {
            // In place; the leftover tail becomes internal fragmentation
            // reclaimed by the next compaction.
            self.page.put_slice(self.base + off, data);
            self.set_slot(i, off, data.len());
            return UpdateOutcome::Done;
        }
        // Tombstone the old record, then place the new bytes; roll back
        // on failure.
        self.set_slot(i, 0, 0);
        if self.contiguous_free() < data.len() {
            if self.total_free() < data.len() {
                self.set_slot(i, off, len);
                return UpdateOutcome::NoSpace;
            }
            self.compact();
        }
        let new_end = self.free_end() - data.len();
        self.page.put_slice(self.base + new_end, data);
        self.set_free_end(new_end);
        self.set_slot(i, new_end, data.len());
        UpdateOutcome::Done
    }

    /// Defragment the record area so all free space is contiguous.
    pub fn compact(&mut self) {
        let count = self.count();
        // Collect live records (slot, offset, len), sorted by offset
        // descending so we can slide them toward the end of the page.
        let mut live: Vec<(usize, usize, usize)> = (0..count)
            .map(|i| {
                let (off, len) = self.slot(i);
                (i, off, len)
            })
            .filter(|(_, off, _)| *off != 0)
            .collect();
        live.sort_by_key(|(_, off, _)| std::cmp::Reverse(*off));
        let mut write_end = self.region_len();
        for (slot, off, len) in live {
            write_end -= len;
            if off != write_end {
                // Overlap-safe: we always move data toward higher
                // addresses and regions never overlap because write_end
                // decreases past each record; use copy_within.
                let src = self.base + off;
                let dst = self.base + write_end;
                self.page.bytes_mut().copy_within(src..src + len, dst);
            }
            self.set_slot(slot, write_end, len);
        }
        self.set_free_end(write_end);
    }

    /// Iterate live `(slot, record)` pairs.
    pub fn iter_live(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.count()).filter_map(move |i| {
            let (off, len) = self.slot(i);
            if off == 0 {
                None
            } else {
                Some((i as u16, self.page.get_slice(self.base + off, len)))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Page {
        let mut p = Page::new();
        SlottedPage::new(&mut p, 0).init();
        p
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = fresh();
        let mut s = SlottedPage::new(&mut p, 0);
        let a = s.insert(b"alpha").unwrap();
        let b = s.insert(b"beta").unwrap();
        assert_ne!(a, b);
        assert_eq!(s.get(a).unwrap(), b"alpha");
        assert_eq!(s.get(b).unwrap(), b"beta");
        assert_eq!(s.get(99), None);
    }

    #[test]
    fn empty_records_are_live() {
        let mut p = fresh();
        let mut s = SlottedPage::new(&mut p, 0);
        let slot = s.insert(b"").unwrap();
        assert_eq!(s.get(slot).unwrap(), b"");
        assert!(s.delete(slot));
        assert_eq!(s.get(slot), None);
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = fresh();
        let mut s = SlottedPage::new(&mut p, 0);
        let a = s.insert(b"one").unwrap();
        let _b = s.insert(b"two").unwrap();
        assert!(s.delete(a));
        assert!(!s.delete(a), "double delete");
        let c = s.insert(b"three").unwrap();
        assert_eq!(c, a, "tombstoned slot reused");
        assert_eq!(s.get(c).unwrap(), b"three");
    }

    #[test]
    fn trailing_tombstones_shrink_slot_array() {
        let mut p = fresh();
        let mut s = SlottedPage::new(&mut p, 0);
        let a = s.insert(b"one").unwrap();
        let b = s.insert(b"two").unwrap();
        assert_eq!(s.slot_count(), 2);
        s.delete(b);
        assert_eq!(s.slot_count(), 1);
        s.delete(a);
        assert_eq!(s.slot_count(), 0);
    }

    #[test]
    fn fills_up_and_compacts() {
        let mut p = fresh();
        let mut s = SlottedPage::new(&mut p, 0);
        // Fill with 100-byte records.
        let mut slots = Vec::new();
        while let Some(slot) = s.insert(&[7u8; 100]) {
            slots.push(slot);
        }
        assert!(slots.len() >= 35, "page should hold ~39 such records");
        // Delete every other record, then insert a large record that
        // only fits after compaction.
        for slot in slots.iter().step_by(2) {
            s.delete(*slot);
        }
        let big_len = s.total_free().saturating_sub(SLOT_SIZE);
        assert!(big_len > 150, "freed space should exceed one record");
        let big = vec![9u8; big_len.min(1500)];
        let slot = s.insert(&big).expect("fits after compaction");
        assert_eq!(s.get(slot).unwrap(), &big[..]);
        // Survivors intact.
        for slot in slots.iter().skip(1).step_by(2) {
            assert_eq!(s.get(*slot).unwrap(), &[7u8; 100][..]);
        }
    }

    #[test]
    fn update_in_place_shrinking_and_growing() {
        let mut p = fresh();
        let mut s = SlottedPage::new(&mut p, 0);
        let slot = s.insert(b"abcdef").unwrap();
        assert_eq!(s.update(slot, b"xy"), UpdateOutcome::Done);
        assert_eq!(s.get(slot).unwrap(), b"xy");
        assert_eq!(s.update(slot, b"longer-than-before"), UpdateOutcome::Done);
        assert_eq!(s.get(slot).unwrap(), b"longer-than-before");
    }

    #[test]
    fn update_without_space_rolls_back() {
        let mut p = fresh();
        let mut s = SlottedPage::new(&mut p, 0);
        let slot = s.insert(b"small").unwrap();
        while s.insert(&[1u8; 64]).is_some() {}
        let huge = vec![2u8; PAGE_SIZE];
        assert_eq!(s.update(slot, &huge), UpdateOutcome::NoSpace);
        assert_eq!(s.get(slot).unwrap(), b"small", "rolled back");
    }

    #[test]
    fn respects_base_offset() {
        let mut p = Page::new();
        p.put_u64(0, 0xFEED_FACE); // simulated heap header
        let mut s = SlottedPage::new(&mut p, 16);
        s.init();
        let slot = s.insert(b"payload").unwrap();
        assert_eq!(s.get(slot).unwrap(), b"payload");
        assert_eq!(p.get_u64(0), 0xFEED_FACE, "header untouched");
    }

    #[test]
    fn max_record_len_fits_exactly() {
        let mut p = fresh();
        let mut s = SlottedPage::new(&mut p, 0);
        let max = SlottedPage::max_record_len(0);
        let data = vec![3u8; max];
        let slot = s.insert(&data).expect("max record must fit");
        assert_eq!(s.get(slot).unwrap(), &data[..]);
        assert!(s.insert(b"x").is_none(), "page is exactly full");
    }

    #[test]
    fn iter_live_skips_tombstones() {
        let mut p = fresh();
        let mut s = SlottedPage::new(&mut p, 0);
        let a = s.insert(b"a").unwrap();
        let b = s.insert(b"b").unwrap();
        let c = s.insert(b"c").unwrap();
        s.delete(b);
        let live: Vec<(u16, Vec<u8>)> = s
            .iter_live()
            .map(|(i, d)| (i, d.to_vec()))
            .collect();
        assert_eq!(live, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }
}
