//! The counting global allocator.
//!
//! The counters are per thread, so tests running concurrently — and the
//! libtest harness threads — do not perturb each other's measurement.  They
//! are const-initialised and drop-free, so reading them inside the
//! allocator cannot recurse into lazy TLS initialisation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // TLS may be unavailable during thread teardown; those allocations
    // belong to the runtime, not the measured loop.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Books `grown` bytes allocated and `freed` bytes released on this thread
/// and raises the peak.  A block freed here but allocated on another thread
/// saturates at zero rather than wrapping.
fn track(grown: usize, freed: usize) {
    let _ = LIVE_BYTES.try_with(|live| {
        let now = (live.get() + grown).saturating_sub(freed);
        live.set(now);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Counts every allocation entry point (alloc, realloc, alloc_zeroed) on
/// the current thread, books the live heap bytes, and delegates to the
/// system allocator.
pub struct CountingAllocator;

// SAFETY: delegates directly to `System`, which upholds the `GlobalAlloc`
// contract; the counter updates have no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        track(layout.size(), 0);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        // SAFETY: `ptr` was allocated by `System` (every entry point
        // delegates to it) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // A moved block is briefly both: book the new size before the old.
        track(new_size, 0);
        track(0, layout.size());
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract
        // for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        track(layout.size(), 0);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Allocation calls made on this thread so far (only counted in a binary
/// that installs [`CountingAllocator`] as its global allocator).
pub fn allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Runs `f` and returns its result with the peak of this thread's live heap
/// bytes during the call, above what was live when it started.
pub fn peak_bytes_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(start));
    let out = f();
    (out, PEAK_BYTES.with(Cell::get) - start)
}
