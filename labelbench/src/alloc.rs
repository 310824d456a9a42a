//! Counting global allocator, armed per thread only around calls into the
//! transport stack.
//!
//! Two per-thread tallies are kept: `armed` counts only allocations made
//! while [`counted`] runs a closure (the work the transport stack asks the
//! allocator for), `all` counts every allocation on the thread. The second
//! exists so tests can show that a window around netsim or workload-loop code
//! really allocates, yet adds nothing to the armed tally.
//!
//! The tallies are thread-local, so concurrent test threads never count
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], with every allocation counted on the calling thread.
pub struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ARMED_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ARMED_BYTES: Cell<u64> = const { Cell::new(0) };
    static ALL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with` fails only while the thread's locals are being torn down;
    // such late allocations are simply not counted.
    let _ = ALL_ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ARMED_ALLOCS.with(|n| n.set(n.get() + 1));
            ARMED_BYTES.with(|n| n.set(n.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only `const`-initialised thread-local
// `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations and requested bytes.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Count {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls requested (the new size, for `realloc`).
    pub bytes: u64,
}

impl std::ops::Sub for Count {
    type Output = Count;
    fn sub(self, rhs: Count) -> Count {
        Count {
            allocs: self.allocs - rhs.allocs,
            bytes: self.bytes - rhs.bytes,
        }
    }
}

impl std::ops::AddAssign for Count {
    fn add_assign(&mut self, rhs: Count) {
        self.allocs += rhs.allocs;
        self.bytes += rhs.bytes;
    }
}

/// The calling thread's armed tally.
pub fn armed() -> Count {
    Count {
        allocs: ARMED_ALLOCS.with(Cell::get),
        bytes: ARMED_BYTES.with(Cell::get),
    }
}

/// Every allocation the calling thread has made, armed or not.
pub fn all_allocs() -> u64 {
    ALL_ALLOCS.with(Cell::get)
}

/// Runs `f` with the counter armed and returns what it allocated.
///
/// Windows do not nest: the transport stack never calls back into the
/// benchmark, so an inner window would be a bug in a workload loop.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Count) {
    assert!(!ARMED.with(Cell::get), "counting windows do not nest");
    let before = armed();
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, armed() - before)
}
