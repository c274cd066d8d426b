//! The counting allocator behind `heap_peak_mb` and
//! `harness.heap_allocs_per_kinst`: the system allocator plus three
//! process-wide counters (live bytes, the high-water mark of live bytes,
//! allocation calls).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator that counts.  Installed as the binary's
/// `#[global_allocator]`; tests drive a private instance directly.
pub struct Counting {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicUsize,
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapReading {
    /// Bytes allocated and not yet freed.
    pub live: usize,
    /// Largest `live` seen since the last [`Counting::reset_peak`].
    pub peak: usize,
    /// Allocation calls since the process started (reallocations count once).
    pub allocs: usize,
}

impl Counting {
    /// A counter set at zero.
    pub const fn new() -> Self {
        Counting {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocs: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        // The counters are statistics that publish no other data, so
        // `Relaxed` is enough; `fetch_max` keeps the peak exact under
        // concurrent growth.
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Current counter values.
    pub fn reading(&self) -> HeapReading {
        HeapReading {
            live: self.live.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
        }
    }

    /// Restarts the high-water mark from the current live size, so the next
    /// reading's `peak` covers only what happens from here on.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, i.e. from
        // `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's obligation.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_live_peak_and_calls_through_alloc_realloc_dealloc() {
        let c = Counting::new();
        let small = Layout::from_size_align(1000, 8).unwrap();
        // SAFETY: layouts are non-zero-sized; every pointer is freed below
        // with the layout it currently has.
        unsafe {
            let a = c.alloc(small);
            let b = c.alloc_zeroed(small);
            assert!(!a.is_null() && !b.is_null());
            assert_eq!(*b, 0);
            assert_eq!(
                c.reading(),
                HeapReading {
                    live: 2000,
                    peak: 2000,
                    allocs: 2
                }
            );

            let a = c.realloc(a, small, 5000);
            assert_eq!(
                c.reading(),
                HeapReading {
                    live: 6000,
                    peak: 6000,
                    allocs: 3
                }
            );
            let big = Layout::from_size_align(5000, 8).unwrap();
            let a = c.realloc(a, big, 500);
            assert_eq!(c.reading().live, 1500);
            assert_eq!(c.reading().peak, 6000, "the high-water mark stays");

            c.reset_peak();
            assert_eq!(c.reading().peak, 1500, "reset restarts from live");
            c.dealloc(a, Layout::from_size_align(500, 8).unwrap());
            c.dealloc(b, small);
        }
        assert_eq!(
            c.reading(),
            HeapReading {
                live: 0,
                peak: 1500,
                allocs: 4
            }
        );
    }
}
