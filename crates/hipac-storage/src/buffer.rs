//! A pinning buffer pool with second-chance (clock) replacement.
//!
//! Callers fetch pages through the pool and hold them via [`PageRef`]
//! guards; a page is only evictable while unpinned. `capacity` is a
//! soft limit: if nothing is evictable the pool grows rather than
//! failing, which keeps deep B+tree descents simple.
//!
//! Replacement is a FIFO of the resident frames with one reference bit
//! each — exactly one queue entry per queued frame, so the queue never
//! outgrows the pool. A hit sets the bit and allocates nothing; the
//! evictor gives a referenced or pinned frame another lap. Under
//! [`EvictionPolicy::CleanOnly`] a dirty frame the evictor meets
//! *leaves* the queue — it cannot go anywhere until a flush — and
//! re-enters at [`BufferPool::flush_all`], so the dirty set is never
//! rescanned. A miss examines at most `SWEEP` (8) candidates and grows
//! the pool if none of them can go; the next misses keep sweeping until
//! the pool is back under capacity. A miss therefore costs the same
//! whether ten frames are dirty or ten thousand.
//!
//! The pool's owner may hold part of the capacity back for memory it
//! keeps beside the pool ([`BufferPool::reserve`]): the durable store
//! reserves its memtable's size, the room its dirty pages took when
//! commits still wrote pages.

use crate::disk::DiskManager;
use crate::page::{Page, PageId};
use hipac_common::Result;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Replacement candidates one miss may examine before the pool grows
/// instead.
const SWEEP: usize = 8;

/// One buffered page.
pub struct Frame {
    /// The page this frame currently holds.
    pub id: PageId,
    page: RwLock<Page>,
    dirty: AtomicBool,
    pins: AtomicUsize,
}

/// A pinned handle to a buffered page. The pin is released on drop.
pub struct PageRef {
    frame: Arc<Frame>,
}

impl PageRef {
    /// The page id this handle refers to.
    pub fn id(&self) -> PageId {
        self.frame.id
    }

    /// Shared read access to the page image.
    pub fn read(&self) -> RwLockReadGuard<'_, Page> {
        self.frame.page.read()
    }

    /// Exclusive write access; marks the page dirty.
    pub fn write(&self) -> RwLockWriteGuard<'_, Page> {
        self.frame.dirty.store(true, Ordering::Release);
        self.frame.page.write()
    }
}

impl Clone for PageRef {
    fn clone(&self) -> Self {
        self.frame.pins.fetch_add(1, Ordering::AcqRel);
        PageRef {
            frame: Arc::clone(&self.frame),
        }
    }
}

impl Drop for PageRef {
    fn drop(&mut self) {
        self.frame.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A resident frame and its replacement state (guarded by the pool
/// mutex, like the queue it describes).
struct Slot {
    frame: Arc<Frame>,
    /// Touched since the evictor last passed: earns one more lap.
    referenced: bool,
    /// Whether `queue` holds this frame's (single) entry.
    queued: bool,
}

struct PoolInner {
    frames: HashMap<PageId, Slot>,
    /// Replacement order, oldest first: the ids of exactly the frames
    /// whose slot says `queued`.
    queue: VecDeque<PageId>,
}

/// What eviction may do with dirty pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Dirty pages may be evicted after being written back ("steal").
    /// The checkpoint's shadow file is built through such a pool: it is
    /// not authoritative until renamed, so it may stream to disk.
    WriteBack,
    /// Only clean pages are evictable; dirty pages stay resident until
    /// an explicit flush ("no-steal"). The durable store relies on this
    /// so the data file never contains un-checkpointed state.
    CleanOnly,
}

/// The buffer pool. Cheap to clone via `Arc` by callers that share it.
pub struct BufferPool {
    disk: Arc<DiskManager>,
    capacity: usize,
    /// Pages of `capacity` held back by [`BufferPool::reserve`].
    reserved: AtomicUsize,
    policy: EvictionPolicy,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    examined: AtomicU64,
}

impl BufferPool {
    /// Create a pool over `disk` holding at most ~`capacity` pages
    /// (soft limit; see module docs), with write-back eviction.
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> Self {
        Self::with_policy(disk, capacity, EvictionPolicy::WriteBack)
    }

    /// Create a pool with an explicit eviction policy.
    pub fn with_policy(
        disk: Arc<DiskManager>,
        capacity: usize,
        policy: EvictionPolicy,
    ) -> Self {
        BufferPool {
            disk,
            capacity: capacity.max(1),
            reserved: AtomicUsize::new(0),
            policy,
            inner: Mutex::new(PoolInner {
                frames: HashMap::new(),
                queue: VecDeque::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            examined: AtomicU64::new(0),
        }
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    /// Fetch page `id`, reading it from disk on a miss.
    pub fn fetch(&self, id: PageId) -> Result<PageRef> {
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.frames.get_mut(&id) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            slot.referenced = true;
            slot.frame.pins.fetch_add(1, Ordering::AcqRel);
            return Ok(PageRef {
                frame: Arc::clone(&slot.frame),
            });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evict_if_full(&mut inner)?;
        let page = self.disk.read_page(id)?;
        Ok(Self::admit(&mut inner, id, page))
    }

    /// Allocate a fresh zeroed page on disk and return it pinned.
    pub fn new_page(&self) -> Result<PageRef> {
        let id = self.disk.allocate()?;
        let mut inner = self.inner.lock();
        self.evict_if_full(&mut inner)?;
        Ok(Self::admit(&mut inner, id, Page::new()))
    }

    /// Make `page` resident as a clean frame at the young end of the
    /// queue, and return it pinned.
    fn admit(inner: &mut PoolInner, id: PageId, page: Page) -> PageRef {
        let frame = Arc::new(Frame {
            id,
            page: RwLock::new(page),
            dirty: AtomicBool::new(false),
            pins: AtomicUsize::new(1),
        });
        inner.frames.insert(
            id,
            Slot {
                frame: Arc::clone(&frame),
                referenced: false,
                queued: true,
            },
        );
        inner.queue.push_back(id);
        PageRef { frame }
    }

    /// Hold `pages` of the capacity back, and evict (sweeping as a miss
    /// does) toward what is left.
    pub fn reserve(&self, pages: usize) -> Result<()> {
        self.reserved.store(pages, Ordering::Relaxed);
        self.evict_if_full(&mut self.inner.lock())
    }

    /// Pages currently held back by [`BufferPool::reserve`].
    pub fn reserved(&self) -> usize {
        self.reserved.load(Ordering::Relaxed)
    }

    fn evict_if_full(&self, inner: &mut PoolInner) -> Result<()> {
        let limit = self
            .capacity
            .saturating_sub(self.reserved.load(Ordering::Relaxed))
            .max(1);
        let mut examined = 0;
        while inner.frames.len() >= limit && examined < SWEEP {
            let Some(id) = inner.queue.pop_front() else {
                break;
            };
            examined += 1;
            let slot = inner
                .frames
                .get_mut(&id)
                .expect("queue entries are resident frames");
            // Unpinned means no `PageRef` exists, and a new one needs the
            // pool mutex we hold: `dirty` cannot change under us.
            let dirty = slot.frame.dirty.load(Ordering::Acquire);
            if dirty && self.policy == EvictionPolicy::CleanOnly {
                slot.queued = false;
            } else if slot.frame.pins.load(Ordering::Acquire) > 0
                || std::mem::take(&mut slot.referenced)
            {
                inner.queue.push_back(id);
            } else {
                if dirty {
                    self.disk.write_page(id, &slot.frame.page.read())?;
                }
                inner.frames.remove(&id);
            }
        }
        self.examined.fetch_add(examined as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Write all dirty pages back to disk (without syncing). Frames that
    /// left the replacement queue while dirty rejoin it.
    pub fn flush_all(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let PoolInner { frames, queue } = &mut *inner;
        for (id, slot) in frames.iter_mut() {
            if slot.frame.dirty.swap(false, Ordering::AcqRel) {
                self.disk.write_page(*id, &slot.frame.page.read())?;
            }
            if !std::mem::replace(&mut slot.queued, true) {
                queue.push_back(*id);
            }
        }
        Ok(())
    }

    /// Flush dirty pages and fsync the database file.
    pub fn flush_and_sync(&self) -> Result<()> {
        self.flush_all()?;
        self.disk.sync()
    }

    /// Number of pages currently buffered.
    pub fn buffered_pages(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// (hits, misses) counters since creation.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Replacement candidates examined since creation; at most eight
    /// per miss or allocation.
    pub fn examined(&self) -> u64 {
        self.examined.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn pool(name: &str, cap: usize) -> BufferPool {
        let dir = std::env::temp_dir().join("hipac-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p: PathBuf = dir.join(format!("{name}-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        BufferPool::new(Arc::new(DiskManager::open(&p).unwrap()), cap)
    }

    #[test]
    fn fetch_returns_written_data() {
        let pool = pool("basic", 8);
        let id = {
            let p = pool.new_page().unwrap();
            p.write().put_u64(0, 4242);
            p.id()
        };
        let p = pool.fetch(id).unwrap();
        assert_eq!(p.read().get_u64(0), 4242);
    }

    #[test]
    fn eviction_writes_dirty_pages_back() {
        let pool = pool("evict", 2);
        let mut ids = Vec::new();
        for i in 0..10u64 {
            let p = pool.new_page().unwrap();
            p.write().put_u64(0, i * 100);
            ids.push(p.id());
        }
        // Pool capacity is 2; most pages must have been evicted.
        assert!(pool.buffered_pages() <= 3);
        for (i, id) in ids.iter().enumerate() {
            let p = pool.fetch(*id).unwrap();
            assert_eq!(p.read().get_u64(0), i as u64 * 100, "page {id}");
        }
    }

    #[test]
    fn a_reservation_shrinks_the_pool_and_its_release_regrows_it() {
        let pool = pool("reserve", 16);
        let ids: Vec<PageId> = (0..16).map(|_| pool.new_page().unwrap().id()).collect();
        pool.flush_all().unwrap();
        for id in &ids {
            pool.fetch(*id).unwrap();
        }
        assert!(pool.buffered_pages() >= 15);
        // Each call sweeps as one miss does; a few bring it down.
        for _ in 0..4 {
            pool.reserve(12).unwrap();
        }
        assert!(pool.buffered_pages() < 4, "{} pages", pool.buffered_pages());
        pool.reserve(0).unwrap();
        for id in &ids {
            pool.fetch(*id).unwrap();
        }
        assert!(pool.buffered_pages() >= 15);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let pool = pool("pinned", 2);
        let pinned = pool.new_page().unwrap();
        pinned.write().put_u64(0, 1);
        // Churn through many pages; the pinned page must survive in the
        // pool (its frame stays valid) and keep its contents.
        for _ in 0..20 {
            let p = pool.new_page().unwrap();
            p.write().put_u64(0, 9);
        }
        assert_eq!(pinned.read().get_u64(0), 1);
    }

    #[test]
    fn pool_grows_when_everything_is_pinned() {
        let pool = pool("grow", 2);
        let mut held = Vec::new();
        for i in 0..5u64 {
            let p = pool.new_page().unwrap();
            p.write().put_u64(0, i);
            held.push(p);
        }
        assert_eq!(pool.buffered_pages(), 5);
        for (i, p) in held.iter().enumerate() {
            assert_eq!(p.read().get_u64(0), i as u64);
        }
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let dir = std::env::temp_dir().join("hipac-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("flush-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let disk = Arc::new(DiskManager::open(&path).unwrap());
        let id = {
            let pool = BufferPool::new(Arc::clone(&disk), 8);
            let p = pool.new_page().unwrap();
            p.write().put_u64(8, 777);
            let id = p.id();
            drop(p);
            pool.flush_and_sync().unwrap();
            id
        };
        // Read through a fresh pool: data must be on disk.
        let pool2 = BufferPool::new(disk, 8);
        assert_eq!(pool2.fetch(id).unwrap().read().get_u64(8), 777);
    }

    #[test]
    fn hit_miss_stats() {
        let pool = pool("stats", 8);
        let id = pool.new_page().unwrap().id();
        let _a = pool.fetch(id).unwrap();
        let _b = pool.fetch(id).unwrap();
        let (hits, misses) = pool.stats();
        assert_eq!(hits, 2);
        assert_eq!(misses, 0);
    }

    #[test]
    fn concurrent_fetches_are_safe() {
        let pool = Arc::new(pool("conc", 4));
        let mut ids = Vec::new();
        for i in 0..16u64 {
            let p = pool.new_page().unwrap();
            p.write().put_u64(0, i);
            ids.push(p.id());
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..50 {
                    let id = ids[(t * 7 + round) % ids.len()];
                    let p = pool.fetch(id).unwrap();
                    let v = p.read().get_u64(0);
                    assert!(v < 16);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::disk::DiskManager;
    use std::path::PathBuf;

    fn clean_only_pool(name: &str, cap: usize) -> BufferPool {
        let dir = std::env::temp_dir().join("hipac-buffer-policy-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p: PathBuf = dir.join(format!("{name}-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        BufferPool::with_policy(
            Arc::new(DiskManager::open(&p).unwrap()),
            cap,
            EvictionPolicy::CleanOnly,
        )
    }

    #[test]
    fn clean_only_never_writes_dirty_pages_on_eviction() {
        let pool = clean_only_pool("nosteal", 2);
        // Dirty a page, then churn through many clean reads: the dirty
        // page must stay resident (the data file keeps its zeroed
        // image) until an explicit flush.
        let dirty = pool.new_page().unwrap();
        let dirty_id = dirty.id();
        dirty.write().put_u64(0, 0xD1D1);
        drop(dirty); // unpinned but dirty
        let mut ids = Vec::new();
        for _ in 0..10 {
            let p = pool.new_page().unwrap();
            ids.push(p.id());
        }
        // Re-fetch each allocated page (clean) to force eviction churn.
        for id in &ids {
            let _ = pool.fetch(*id).unwrap();
        }
        // The dirty page is still buffered with its contents…
        assert_eq!(pool.fetch(dirty_id).unwrap().read().get_u64(0), 0xD1D1);
        // …and the on-disk image is still the zeroed allocation (the
        // pool never stole it).
        let on_disk = pool.disk().read_page(dirty_id).unwrap();
        assert_eq!(on_disk.get_u64(0), 0, "dirty page must not reach disk");
        // An explicit flush writes it back.
        pool.flush_all().unwrap();
        let on_disk = pool.disk().read_page(dirty_id).unwrap();
        assert_eq!(on_disk.get_u64(0), 0xD1D1);
    }

    /// The count, not the clock: with every frame of a full pool dirty
    /// and unpinned, no miss examines more than `SWEEP` candidates, and
    /// once the dirty frames have left the queue a miss examines none.
    #[test]
    fn a_miss_examines_a_bounded_number_of_dirty_frames() {
        const N: usize = 2_000;
        let pool = clean_only_pool("sweep", N);
        let ids: Vec<PageId> = (0..N)
            .map(|_| {
                let p = pool.new_page().unwrap();
                p.write().put_u64(0, 1);
                p.id()
            })
            .collect();
        assert_eq!(pool.buffered_pages(), N);
        let mut worst = 0;
        for _ in 0..N {
            let before = pool.examined();
            drop(pool.new_page().unwrap());
            worst = worst.max(pool.examined() - before);
        }
        assert!(
            worst <= SWEEP as u64,
            "one miss examined {worst} candidates"
        );
        // Each dirty frame was examined once and then left the queue; the
        // clean newcomers were evicted on the way.
        assert!(pool.examined() <= 2 * (2 * N) as u64);
        assert!(pool.inner.lock().queue.len() <= SWEEP);
        // A flush makes them evictable again, one queue entry each.
        pool.flush_all().unwrap();
        let queued = pool.inner.lock().queue.len();
        assert_eq!(queued, pool.buffered_pages());
        for id in ids.iter().take(10) {
            assert_eq!(pool.fetch(*id).unwrap().read().get_u64(0), 1);
        }
    }

    #[test]
    fn hits_do_not_grow_the_queue() {
        let pool = clean_only_pool("hits", 64);
        let ids: Vec<PageId> = (0..16).map(|_| pool.new_page().unwrap().id()).collect();
        for i in 0..1_000_000usize {
            drop(pool.fetch(ids[i % ids.len()]).unwrap());
        }
        let inner = pool.inner.lock();
        assert_eq!(inner.frames.len(), 16);
        assert!(
            inner.queue.len() <= inner.frames.len(),
            "one queue entry per resident frame, got {}",
            inner.queue.len()
        );
        assert!(
            inner.queue.capacity() <= 64,
            "queue memory is bounded by the pool"
        );
    }

    #[test]
    fn referenced_frames_get_a_second_chance() {
        let pool = clean_only_pool("clock", 4);
        let hot = pool.new_page().unwrap().id();
        for _ in 0..64 {
            drop(pool.fetch(hot).unwrap());
            drop(pool.new_page().unwrap());
        }
        let (_, misses) = pool.stats();
        assert_eq!(
            misses, 0,
            "the page touched between misses never left the pool"
        );
    }

    #[test]
    fn clean_only_pool_stays_bounded_with_clean_pages() {
        let pool = clean_only_pool("bounded", 4);
        for _ in 0..32 {
            let p = pool.new_page().unwrap();
            drop(p); // clean and unpinned: evictable
        }
        assert!(
            pool.buffered_pages() <= 6,
            "clean pages evict normally, got {}",
            pool.buffered_pages()
        );
    }
}
