//! A counting global allocator, armed only around the stage pass, so
//! `alloc.count.*` is exact.  Disarmed it costs one relaxed load per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn note() {
    // Relaxed: a statistic that publishes no other data.
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

/// Count the allocations (and reallocations) `f` performs on any thread.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.load(Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (out, COUNT.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_allocations_made_while_armed() {
        let (v, n) = super::count(|| vec![1u8; 100]);
        assert_eq!(v.len(), 100);
        assert!(n >= 1);
    }
}
