//! The counting allocator of the allocation goldens: a thread-local count
//! of allocations, bytes allocated and live bytes, taken only inside
//! [`counted`]. A test binary that declares `mod counting;` makes it its
//! `#[global_allocator]`.

// The counting allocator is the one `unsafe` item of the tests: an
// `unsafe impl GlobalAlloc` that forwards every call to `System` unchanged.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the allocator counted on this thread while counting was on.
/// `live` is the net of what was allocated and freed since counting
/// started (it goes negative when the counted code frees what came before
/// it), `high` its maximum.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    on: bool,
    /// Allocations, a `realloc` included.
    pub allocs: u64,
    /// Bytes allocated, a `realloc` counting its new size.
    pub bytes: u64,
    live: i64,
    /// The live high-water mark above the start.
    pub high: i64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            on: false,
            allocs: 0,
            bytes: 0,
            live: 0,
            high: 0,
        })
    };
}

/// Counts `allocs` allocations of `bytes` in all that move the live total
/// by `delta`, on the calling thread. A thread whose locals are already
/// torn down is not counted.
fn note(allocs: u64, bytes: usize, delta: i64) {
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        if n.on {
            n.allocs += allocs;
            n.bytes += bytes as u64;
            n.live += delta;
            n.high = n.high.max(n.live);
            c.set(n);
        }
    });
}

/// A size as a live-total change.
fn signed(bytes: usize) -> i64 {
    bytes as i64
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; `note` only touches a `Cell` of plain
// integers and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), signed(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, -signed(layout.size()));
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size, signed(new_size) - signed(layout.size()));
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with counting on and returns its result with what it counted.
/// The result is dropped by the caller, after counting stops.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    COUNTS.with(|c| {
        c.set(Counts {
            on: true,
            ..Counts::default()
        })
    });
    let out = f();
    (out, COUNTS.with(|c| c.replace(Counts::default())))
}
