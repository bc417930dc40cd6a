//! A counting global allocator for the footprint tests: live heap bytes
//! and allocation calls are exact counts, so a test built on them gives
//! the same verdict on any host. Each test binary that wants readings
//! installs it with `#[global_allocator]` and holds a single `#[test]`,
//! so no other test's allocations mix in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting. The counters publish no other data (`Relaxed`).
pub struct CountingAllocator;

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence what
// is returned.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Relaxed);
            ALLOCATIONS.fetch_add(1, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE_BYTES.fetch_add(new_size, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
            ALLOCATIONS.fetch_add(1, Relaxed);
        }
        q
    }
}

/// Heap bytes currently allocated by the process.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Relaxed)
}

/// `alloc` + `realloc` calls made by the process so far.
// Each test binary compiles its own copy of this module; not all of them
// read both counters.
#[allow(dead_code)]
pub fn allocations() -> usize {
    ALLOCATIONS.load(Relaxed)
}
