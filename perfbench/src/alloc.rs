//! A counting global allocator, live only while a thread switches it on.
//!
//! Counts are kept per thread, so parallel test threads never see each
//! other's allocations, and they repeat exactly between runs of one
//! commit: the simulator is deterministic and single-threaded. While a
//! thread has counting off, each allocation pays one thread-local read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting calls and requested bytes on threads
/// that enabled counting.
pub struct CountingAlloc;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocation calls and bytes requested, as read by [`snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

impl std::ops::Sub for AllocCount {
    type Output = AllocCount;
    fn sub(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl std::ops::AddAssign for AllocCount {
    fn add_assign(&mut self, other: AllocCount) {
        self.calls += other.calls;
        self.bytes += other.bytes;
    }
}

fn count(bytes: usize) {
    // `try_with` fails only while the thread's locals are being torn
    // down; an allocation then goes uncounted rather than aborting.
    let _ = ENABLED.try_with(|enabled| {
        if enabled.get() {
            CALLS.with(|c| c.set(c.get() + 1));
            BYTES.with(|b| b.set(b.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for the calling thread.
pub fn set_counting(on: bool) {
    ENABLED.with(|enabled| enabled.set(on));
}

/// The calling thread's running totals.
pub fn snapshot() -> AllocCount {
    AllocCount {
        calls: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}
