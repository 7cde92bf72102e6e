//! Heap files: unordered collections of variable-length records.
//!
//! A heap file is a chain of pages. Each page reserves an 8-byte header
//! holding the next page id, followed by a slotted region. Records are
//! addressed by [`RecordId`] = (page, slot).
//!
//! Insertion fills the tail page and extends the chain when it is full;
//! space freed by deletions in interior pages is reused only by updates
//! within the page. The durable store's checkpoint copies the live
//! values into a fresh heap, appending sequentially, and that copy is
//! where reclamation happens — the reason the checkpoint compacts rather
//! than flushing dirty pages in place. Reads take the page's shared
//! latch and leave it clean.

use crate::buffer::BufferPool;
use crate::page::PageId;
use crate::slotted::{SlottedPage, UpdateOutcome};
use hipac_common::{HipacError, Result};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Offset where the slotted region starts in a heap page; bytes 0..8
/// hold the next-page link.
const SLOT_BASE: usize = 8;

/// Address of a record in a heap file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    pub page: PageId,
    pub slot: u16,
}

impl fmt::Debug for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rid({}:{})", self.page.0, self.slot)
    }
}

impl RecordId {
    /// Pack into a u64 for storage in index leaves (page ids in this
    /// system stay far below 2^48).
    pub fn to_u64(self) -> u64 {
        (self.page.0 << 16) | u64::from(self.slot)
    }

    /// Inverse of [`RecordId::to_u64`].
    pub fn from_u64(v: u64) -> Self {
        RecordId {
            page: PageId(v >> 16),
            slot: (v & 0xFFFF) as u16,
        }
    }
}

struct HeapState {
    /// All pages in chain order; the last one is the insertion target.
    pages: Vec<PageId>,
}

/// A heap file over a buffer pool.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    state: Mutex<HeapState>,
    first: PageId,
}

impl HeapFile {
    /// Create a new heap file, allocating its first page.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let page = pool.new_page()?;
        let first = page.id();
        {
            let mut guard = page.write();
            guard.put_u64(0, PageId::NULL.0);
            SlottedPage::new(&mut guard, SLOT_BASE).init();
        }
        Ok(HeapFile {
            pool,
            state: Mutex::new(HeapState { pages: vec![first] }),
            first,
        })
    }

    /// Open an existing heap file whose chain starts at `first`.
    pub fn open(pool: Arc<BufferPool>, first: PageId) -> Result<Self> {
        let mut pages = Vec::new();
        let mut cur = first;
        while !cur.is_null() {
            pages.push(cur);
            let page = pool.fetch(cur)?;
            let next = page.read().get_u64(0);
            cur = PageId(next);
            if pages.len() as u64 > pool.disk().num_pages() {
                return Err(HipacError::Corruption(
                    "heap page chain contains a cycle".into(),
                ));
            }
        }
        if pages.is_empty() {
            return Err(HipacError::Corruption("heap file with no pages".into()));
        }
        Ok(HeapFile {
            pool,
            state: Mutex::new(HeapState { pages }),
            first,
        })
    }

    /// First page of the chain (persist this to reopen the file).
    pub fn first_page(&self) -> PageId {
        self.first
    }

    /// Number of pages in the chain.
    pub fn page_count(&self) -> usize {
        self.state.lock().pages.len()
    }

    /// Largest insertable record.
    pub fn max_record_len() -> usize {
        SlottedPage::max_record_len(SLOT_BASE)
    }

    /// Insert a record, returning its id.
    pub fn insert(&self, data: &[u8]) -> Result<RecordId> {
        if data.len() > Self::max_record_len() {
            return Err(HipacError::RecordTooLarge {
                size: data.len(),
                max: Self::max_record_len(),
            });
        }
        let mut state = self.state.lock();
        let tail = *state.pages.last().expect("chain is never empty");
        let page = self.pool.fetch(tail)?;
        {
            let mut guard = page.write();
            let mut slotted = SlottedPage::new(&mut guard, SLOT_BASE);
            if let Some(slot) = slotted.insert(data) {
                return Ok(RecordId { page: tail, slot });
            }
        }
        // Tail is full: extend the chain.
        let new_page = self.pool.new_page()?;
        let new_id = new_page.id();
        {
            let mut guard = new_page.write();
            guard.put_u64(0, PageId::NULL.0);
            SlottedPage::new(&mut guard, SLOT_BASE).init();
        }
        page.write().put_u64(0, new_id.0);
        state.pages.push(new_id);
        let mut guard = new_page.write();
        let mut slotted = SlottedPage::new(&mut guard, SLOT_BASE);
        let slot = slotted
            .insert(data)
            .expect("fresh page must hold a record that passed the size check");
        Ok(RecordId { page: new_id, slot })
    }

    /// Read the record at `rid`.
    pub fn get(&self, rid: RecordId) -> Result<Vec<u8>> {
        let page = self.pool.fetch(rid.page)?;
        let guard = page.read();
        SlottedPage::read(&guard, SLOT_BASE, rid.slot)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| HipacError::StorageNotFound(format!("{rid:?}")))
    }

    /// Replace the record at `rid`. If it no longer fits in its page it
    /// is relocated; the (possibly new) record id is returned.
    pub fn update(&self, rid: RecordId, data: &[u8]) -> Result<RecordId> {
        if data.len() > Self::max_record_len() {
            return Err(HipacError::RecordTooLarge {
                size: data.len(),
                max: Self::max_record_len(),
            });
        }
        let page = self.pool.fetch(rid.page)?;
        let outcome = {
            let mut guard = page.write();
            let mut slotted = SlottedPage::new(&mut guard, SLOT_BASE);
            if slotted.get(rid.slot).is_none() {
                return Err(HipacError::StorageNotFound(format!("{rid:?}")));
            }
            slotted.update(rid.slot, data)
        };
        match outcome {
            UpdateOutcome::Done => Ok(rid),
            UpdateOutcome::NoSpace => {
                // Relocate: insert first, then unlink the old copy, so a
                // failure cannot lose the record.
                let new_rid = self.insert(data)?;
                let mut guard = page.write();
                let mut slotted = SlottedPage::new(&mut guard, SLOT_BASE);
                slotted.delete(rid.slot);
                Ok(new_rid)
            }
        }
    }

    /// Delete the record at `rid`.
    pub fn delete(&self, rid: RecordId) -> Result<()> {
        let page = self.pool.fetch(rid.page)?;
        let mut guard = page.write();
        let mut slotted = SlottedPage::new(&mut guard, SLOT_BASE);
        if slotted.delete(rid.slot) {
            Ok(())
        } else {
            Err(HipacError::StorageNotFound(format!("{rid:?}")))
        }
    }

    /// Materialize all live records as `(rid, bytes)` pairs, in chain
    /// order.
    pub fn scan(&self) -> Result<Vec<(RecordId, Vec<u8>)>> {
        let pages = self.state.lock().pages.clone();
        let mut out = Vec::new();
        for pid in pages {
            let page = self.pool.fetch(pid)?;
            let mut guard = page.write();
            let slotted = SlottedPage::new(&mut guard, SLOT_BASE);
            for (slot, data) in slotted.iter_live() {
                out.push((RecordId { page: pid, slot }, data.to_vec()));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;

    fn make_pool(name: &str, cap: usize) -> Arc<BufferPool> {
        let dir = std::env::temp_dir().join("hipac-heap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        Arc::new(BufferPool::new(
            Arc::new(DiskManager::open(&p).unwrap()),
            cap,
        ))
    }

    #[test]
    fn insert_get_update_delete() {
        let heap = HeapFile::create(make_pool("crud", 16)).unwrap();
        let rid = heap.insert(b"hello").unwrap();
        assert_eq!(heap.get(rid).unwrap(), b"hello");
        let rid2 = heap.update(rid, b"hi").unwrap();
        assert_eq!(rid2, rid, "shrinking update stays in place");
        assert_eq!(heap.get(rid).unwrap(), b"hi");
        heap.delete(rid).unwrap();
        assert!(heap.get(rid).is_err());
        assert!(heap.delete(rid).is_err());
    }

    #[test]
    fn grows_across_pages() {
        let heap = HeapFile::create(make_pool("grow", 16)).unwrap();
        let rec = vec![5u8; 1000];
        let rids: Vec<_> = (0..20).map(|_| heap.insert(&rec).unwrap()).collect();
        assert!(heap.page_count() > 1, "1000B × 20 must span pages");
        for rid in &rids {
            assert_eq!(heap.get(*rid).unwrap(), rec);
        }
    }

    #[test]
    fn update_relocates_when_page_is_full() {
        let heap = HeapFile::create(make_pool("reloc", 16)).unwrap();
        let small = heap.insert(b"tiny").unwrap();
        // Fill the rest of the first page.
        while heap.page_count() == 1 {
            heap.insert(&[1u8; 128]).unwrap();
        }
        let big = vec![9u8; 2000];
        let new_rid = heap.update(small, &big).unwrap();
        assert_ne!(new_rid, small);
        assert_eq!(heap.get(new_rid).unwrap(), big);
        assert!(heap.get(small).is_err(), "old copy unlinked");
    }

    #[test]
    fn record_too_large_is_rejected() {
        let heap = HeapFile::create(make_pool("toolarge", 16)).unwrap();
        let huge = vec![0u8; HeapFile::max_record_len() + 1];
        assert!(matches!(
            heap.insert(&huge),
            Err(HipacError::RecordTooLarge { .. })
        ));
        let exact = vec![0u8; HeapFile::max_record_len()];
        let rid = heap.insert(&exact).unwrap();
        assert_eq!(heap.get(rid).unwrap(), exact);
    }

    #[test]
    fn scan_returns_all_live_records() {
        let heap = HeapFile::create(make_pool("scan", 16)).unwrap();
        let a = heap.insert(b"a").unwrap();
        let b = heap.insert(b"b").unwrap();
        let c = heap.insert(b"c").unwrap();
        heap.delete(b).unwrap();
        let got = heap.scan().unwrap();
        assert_eq!(
            got,
            vec![(a, b"a".to_vec()), (c, b"c".to_vec())]
        );
    }

    #[test]
    fn reopen_walks_the_chain() {
        let pool = make_pool("reopen", 16);
        let (first, rids);
        {
            let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
            first = heap.first_page();
            rids = (0..10u8)
                .map(|i| heap.insert(&[i; 900]).unwrap())
                .collect::<Vec<_>>();
        }
        let heap = HeapFile::open(pool, first).unwrap();
        assert!(heap.page_count() >= 3);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(heap.get(*rid).unwrap(), vec![i as u8; 900]);
        }
        // And inserts continue to work after reopen.
        let rid = heap.insert(b"after reopen").unwrap();
        assert_eq!(heap.get(rid).unwrap(), b"after reopen");
    }

    #[test]
    fn rid_u64_packing_roundtrips() {
        for rid in [
            RecordId { page: PageId(0), slot: 0 },
            RecordId { page: PageId(1), slot: 65535 },
            RecordId { page: PageId(1 << 40), slot: 7 },
        ] {
            assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
        }
    }
}
