//! The counting global allocator the allocation tests share: every
//! allocation made by any thread of the test binary bumps [`ALLOCS`],
//! and [`LIVE`] tracks the bytes allocated and not yet freed. A binary
//! that declares this module counts everything it runs, so each such
//! binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct Counting;

/// Allocations made by every thread of the process.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
pub static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `Counting` upholds exactly the contracts `System` does; the
// only additions are two atomic counters that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;
