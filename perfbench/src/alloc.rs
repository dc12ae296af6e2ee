//! A counting global allocator: live bytes, peak live bytes, allocation
//! count and total bytes allocated, kept with relaxed atomics so the cost per
//! allocation is four uncontended atomic adds on top of the system allocator.
//!
//! [`HEAP`] is the benchmark binary's global allocator; it feeds `peak_heap_mb`, `retained_heap_kb` and the `alloc.*`
//! per-layer counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Wraps [`System`] and counts what passes through it.
pub struct CountingAlloc {
    live: AtomicU64,
    peak: AtomicU64,
    count: AtomicU64,
    total: AtomicU64,
}

/// The process-wide instance: every allocation of a program linking this
/// crate goes through it.
#[global_allocator]
pub static HEAP: CountingAlloc = CountingAlloc::new();

/// A point-in-time reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes currently allocated and not yet freed.
    pub live: u64,
    /// Highest `live` since creation or the last [`CountingAlloc::reset_peak`].
    pub peak: u64,
    /// Allocations made (`alloc`, `alloc_zeroed` and growing `realloc`s).
    pub count: u64,
    /// Bytes handed out over the allocator's lifetime.
    pub total: u64,
}

impl CountingAlloc {
    /// Zeroed counters.
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            count: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// Read every counter.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
            count: self.count.load(Relaxed),
            total: self.total.load(Relaxed),
        }
    }

    /// Restart peak tracking from the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    fn grow(&self, bytes: u64) {
        let live = self.live.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(live, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.total.fetch_add(bytes, Relaxed);
    }

    fn shrink(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every call forwards to `System` with the caller's layout unchanged;
// the counters never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.grow(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                self.grow(new - old);
            } else {
                self.shrink(old - new);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_sizes_move_live_and_peak_exactly() {
        // A private instance: the process-wide one also sees the test
        // harness's own allocations.
        let a = CountingAlloc::new();
        let l100 = Layout::from_size_align(100, 8).unwrap();
        let l300 = Layout::from_size_align(300, 16).unwrap();
        unsafe {
            let p = a.alloc(l100);
            let q = a.alloc_zeroed(l300);
            assert_eq!(a.stats().live, 400);
            assert_eq!(a.stats().peak, 400);
            a.dealloc(p, l100);
            assert_eq!(a.stats().live, 300);
            assert_eq!(a.stats().peak, 400);
            let q = a.realloc(q, l300, 1000);
            assert_eq!(a.stats().live, 1000);
            assert_eq!(a.stats().peak, 1000);
            let l1000 = Layout::from_size_align(1000, 16).unwrap();
            let q = a.realloc(q, l1000, 200);
            assert_eq!(a.stats().live, 200);
            a.reset_peak();
            assert_eq!(a.stats().peak, 200);
            a.dealloc(q, Layout::from_size_align(200, 16).unwrap());
        }
        let s = a.stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.peak, 200);
        assert_eq!(s.count, 3, "two allocations and one growing realloc");
        assert_eq!(s.total, 100 + 300 + 700);
    }
}
