//! A counting `#[global_allocator]` for the allocation-budget tests.  The
//! counters are process-wide, so a test binary that installs it holds one
//! `#[test]` only: a second test thread would allocate into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

/// Allocation calls (`alloc` + `realloc`) so far.
pub static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes those calls asked for.
pub static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
pub static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE_BYTES` has been; a test stores the live figure here before
/// the code it measures.  A `realloc` counts its new block before freeing the
/// old one, as a move would hold both.
pub static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn free(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        free(layout.size());
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        free(layout.size());
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
