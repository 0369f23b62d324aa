//! Counting global allocator with per-thread counters.
//!
//! Every allocation (and every growing or shrinking `realloc`) bumps two
//! `const`-initialised thread-local cells, so concurrent driver threads
//! never share a cache line and the counters cost two non-atomic adds.
//! A thread reads its own totals with [`thread_counts`]; an epoch's figure
//! is the sum of its threads' deltas. The allocator is the same in timed
//! and traced runs, so the two are comparable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counted per thread.
pub struct Counting;

fn note(bytes: usize) {
    // `try_with`: an allocation during thread teardown, after the cells
    // are gone, is served but not counted.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// `const`-initialised thread-locals without destructors, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub count: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

impl AllocCounts {
    /// What this thread allocated since `earlier` was read on it.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl std::ops::AddAssign for AllocCounts {
    fn add_assign(&mut self, rhs: AllocCounts) {
        self.count += rhs.count;
        self.bytes += rhs.bytes;
    }
}

/// The calling thread's totals so far.
pub fn thread_counts() -> AllocCounts {
    AllocCounts {
        count: COUNT.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_only() {
        let before = thread_counts();
        let other = std::thread::spawn(|| {
            let before = thread_counts();
            let v: Vec<u64> = Vec::with_capacity(1000);
            std::hint::black_box(&v);
            thread_counts().since(before)
        })
        .join()
        .expect("counting thread panicked");
        assert_eq!(other.count, 1);
        assert_eq!(other.bytes, 8000);
        let v: Vec<u8> = Vec::with_capacity(10);
        std::hint::black_box(&v);
        let mine = thread_counts().since(before);
        // The spawn allocates on this thread too, but never the 8000 bytes.
        assert!(mine.count >= 1);
        assert!(mine.bytes < 8000, "{mine:?}");
    }
}
