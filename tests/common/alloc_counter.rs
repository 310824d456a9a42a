//! A counting global allocator for the hot-path allocation tests.
//!
//! The wrapper delegates every call to the [`System`] allocator. Counting is
//! thread-scoped: a thread counts its own allocations, and only while it
//! has counting [`arm`]ed. A test binary opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: common::alloc_counter::CountingAllocator = CountingAllocator;
//! ```
//!
//! and then brackets the code under test with [`assert_no_alloc!`] (which
//! arms itself), or arms a window and takes manual [`snapshot`]s for
//! allocs-per-chunk arithmetic. Because the counters belong to the
//! measuring thread, tests that the harness runs concurrently cannot leak
//! allocations into each other's windows. The flip side: work a measured
//! window hands to another thread is not counted, so the hot-path tests
//! drive the *virtual* parallel engine, which keeps every measured window
//! on the one thread that measures it.

#![allow(dead_code)]
// The workspace denies `unsafe_code`; a `GlobalAlloc` impl is the one place
// the allocation tests cannot avoid it. The impl only forwards to `System`
// and bumps thread-local counters — no pointer arithmetic of its own.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread is counting. `const`-initialised thread locals
    /// never allocate on first access, so the allocator may read them.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// This thread's heap allocations while armed (alloc + realloc +
    /// alloc_zeroed).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// This thread's heap frees while armed.
    static FREES: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested across this thread's armed allocations.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bumps `counter` (and `bytes`, when given) if this thread is armed. A
/// thread being torn down has no thread locals left; it counts nothing.
fn count(counter: &'static std::thread::LocalKey<Cell<u64>>, bytes: Option<usize>) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|c| c.set(c.get() + 1));
        if let Some(bytes) = bytes {
            let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
        }
    }
}

/// `System`, with every entry point counted on armed threads.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS, Some(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS, Some(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still counts: the steady state must not even ask.
        count(&ALLOCS, Some(new_size));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&FREES, None);
        System.dealloc(ptr, layout)
    }
}

/// Counting on the current thread, until dropped. Nests: dropping restores
/// whatever the thread had before.
#[must_use = "counting stops when the guard drops"]
pub struct Armed {
    was: bool,
}

impl Drop for Armed {
    fn drop(&mut self) {
        ARMED.set(self.was);
    }
}

/// Arms counting on the current thread until the returned guard drops.
pub fn arm() -> Armed {
    Armed {
        was: ARMED.replace(true),
    }
}

/// A point-in-time reading of the current thread's counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation count at the snapshot.
    pub allocs: u64,
    /// Free count at the snapshot.
    pub frees: u64,
    /// Allocated bytes at the snapshot.
    pub bytes: u64,
}

/// Reads the current thread's counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.get(),
        frees: FREES.get(),
        bytes: ALLOC_BYTES.get(),
    }
}

/// Allocations (and bytes) between two snapshots.
pub fn delta(before: Snapshot, after: Snapshot) -> (u64, u64) {
    (after.allocs - before.allocs, after.bytes - before.bytes)
}

/// Runs a block and asserts it performed **zero** heap allocations on this
/// thread, returning the block's value. The optional trailing arguments
/// format a context message on failure.
///
/// ```ignore
/// let acked = assert_no_alloc!(rx.ingest_batch(&packets, now, &mut out));
/// assert_no_alloc!({ rx.handle_packet_into(&p, 0, &mut out) }, "packet {i}");
/// ```
#[macro_export]
macro_rules! assert_no_alloc {
    ($body:expr) => {
        $crate::assert_no_alloc!($body, "steady state must not allocate")
    };
    ($body:expr, $($ctx:tt)+) => {{
        let armed = $crate::common::alloc_counter::arm();
        let before = $crate::common::alloc_counter::snapshot();
        let value = $body;
        let after = $crate::common::alloc_counter::snapshot();
        drop(armed);
        let (allocs, bytes) = $crate::common::alloc_counter::delta(before, after);
        assert_eq!(
            allocs,
            0,
            "{}: {} heap allocations ({} bytes) inside a no-alloc scope",
            format_args!($($ctx)+),
            allocs,
            bytes
        );
        value
    }};
}
