//! A counting global allocator: allocations, bytes, and the live-heap
//! high-water mark, read at span boundaries.
//!
//! The counters are process-wide relaxed atomics around the system
//! allocator. For a single-threaded job the counts a span sees are a pure
//! function of the code path, so the traced run reports them as exact
//! counts; only the multi-worker `paper-grid` interleaves two jobs' peaks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// [`System`] plus allocation accounting.
pub struct Counting {
    allocs: AtomicU64,
    frees: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations so far (a `realloc` counts as one).
    pub allocs: u64,
    /// Deallocations so far (a `realloc` counts as one).
    pub frees: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`Counting::begin`] reset.
    pub peak: u64,
}

/// What one span allocated. Obtained from [`Counting::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapDelta {
    pub allocs: u64,
    pub bytes: u64,
    /// Live bytes at the end minus live bytes at the start (what the span
    /// left allocated; negative when it freed more than it allocated).
    pub retained: i64,
    /// Highest live heap inside the span, above its starting live heap.
    pub peak_above_start: u64,
}

/// An open span: the counters at its start and the enclosing peak it
/// displaced.
#[derive(Debug, Clone, Copy)]
pub struct HeapSpan {
    start: Snapshot,
    outer_peak: u64,
}

impl Counting {
    pub const fn new() -> Counting {
        Counting {
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn on_alloc(&self, size: usize) {
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(size as u64, Relaxed);
        let live = self.live.fetch_add(size as u64, Relaxed) + size as u64;
        self.peak.fetch_max(live, Relaxed);
    }

    fn on_free(&self, size: usize) {
        self.frees.fetch_add(1, Relaxed);
        self.live.fetch_sub(size as u64, Relaxed);
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            allocs: self.allocs.load(Relaxed),
            frees: self.frees.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
        }
    }

    /// Open a span: restart the high-water mark at the current live heap,
    /// remembering the enclosing one so spans nest.
    pub fn begin(&self) -> HeapSpan {
        let live = self.live.load(Relaxed);
        let outer_peak = self.peak.swap(live, Relaxed);
        HeapSpan {
            start: self.snapshot(),
            outer_peak,
        }
    }

    /// Close a span and restore the enclosing high-water mark.
    pub fn end(&self, span: HeapSpan) -> HeapDelta {
        let now = self.snapshot();
        self.peak.fetch_max(span.outer_peak, Relaxed);
        HeapDelta {
            allocs: now.allocs - span.start.allocs,
            bytes: now.bytes - span.start.bytes,
            retained: now.live as i64 - span.start.live as i64,
            peak_above_start: now.peak.saturating_sub(span.start.live),
        }
    }
}

impl Default for Counting {
    fn default() -> Counting {
        Counting::new()
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.on_free(layout.size());
            self.on_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests drive private `Counting` instances directly, so other
    // test threads allocating through the global instance cannot disturb
    // the counts.

    #[test]
    fn alloc_and_free_balance() {
        let c = Counting::new();
        let l = Layout::from_size_align(100, 8).unwrap();
        // SAFETY: each pointer is freed once, with the layout it was
        // (re)allocated with.
        unsafe {
            let a = c.alloc(l);
            let b = c.alloc_zeroed(l);
            let a = c.realloc(a, l, 300);
            c.dealloc(a, Layout::from_size_align(300, 8).unwrap());
            c.dealloc(b, l);
        }
        let s = c.snapshot();
        assert_eq!(s.allocs, 3);
        assert_eq!(s.frees, 3);
        assert_eq!(s.allocs, s.frees);
        assert_eq!(s.bytes, 100 + 100 + 300);
        assert_eq!(s.live, 0);
        assert_eq!(s.peak, 400);
    }

    #[test]
    fn spans_nest_and_restore_the_outer_peak() {
        let c = Counting::new();
        let l = Layout::from_size_align(1000, 8).unwrap();
        let small = Layout::from_size_align(10, 8).unwrap();
        // SAFETY: each pointer is freed once, with its allocation layout.
        unsafe {
            let outer = c.begin();
            let big = c.alloc(l);
            c.dealloc(big, l);
            let inner = c.begin();
            let s = c.alloc(small);
            let d = c.end(inner);
            assert_eq!(d.allocs, 1);
            assert_eq!(d.bytes, 10);
            assert_eq!(d.retained, 10);
            assert_eq!(d.peak_above_start, 10);
            c.dealloc(s, small);
            let d = c.end(outer);
            assert_eq!(d.allocs, 2);
            assert_eq!(d.retained, 0);
            // The inner span's reset must not hide the outer 1000 B peak.
            assert_eq!(d.peak_above_start, 1000);
        }
    }
}
