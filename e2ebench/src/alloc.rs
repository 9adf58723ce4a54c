//! `CountingAllocator`: the system allocator plus counters for
//! cumulative requested bytes and a live-heap high-water mark.
//!
//! Each thread accumulates its own deltas and folds them into the
//! shared counters once they pass [`FLUSH_BYTES`]: updating shared
//! atomics on every allocation makes worker threads contend on one
//! cache line and distorts the very parallel paths being measured.
//! Readings are therefore exact for the calling thread and lag by at
//! most `FLUSH_BYTES` for every other live thread.
//!
//! The binary installs it as its global allocator; the library only
//! reads the counters, which stay at zero in a binary (such as a test)
//! that keeps the default allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Per-thread slack before deltas reach the shared counters.
const FLUSH_BYTES: i64 = 64 * 1024;

static REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Unflushed (live delta, requested bytes) of this thread.
    static LOCAL: Cell<(i64, u64)> = const { Cell::new((0, 0)) };
}

fn publish(live: i64, requested: u64) {
    REQUESTED.fetch_add(requested, Ordering::Relaxed);
    let now = LIVE.fetch_add(live, Ordering::Relaxed) + live;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn record(live: i64, requested: u64) {
    let kept = LOCAL.try_with(|cell| {
        let (l, r) = cell.get();
        let (l, r) = (l + live, r + requested);
        if l.abs() >= FLUSH_BYTES || r >= FLUSH_BYTES as u64 {
            cell.set((0, 0));
            publish(l, r);
        } else {
            cell.set((l, r));
        }
    });
    if kept.is_err() {
        publish(live, requested);
    }
}

/// Folds the calling thread's pending deltas into the shared counters.
fn flush_local() {
    let _ = LOCAL.try_with(|cell| {
        let (l, r) = cell.replace((0, 0));
        publish(l, r);
    });
}

/// Counts every byte requested and tracks the live set's peak.
pub struct CountingAllocator;

// SAFETY: every operation is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory, and the thread-local cell is const-initialized with
// no destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let delta = new_size as i64 - layout.size() as i64;
        record(delta, delta.max(0) as u64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64), 0);
        System.dealloc(ptr, layout)
    }
}

/// Bytes requested since process start (monotonic; diff two readings).
pub fn requested_bytes() -> u64 {
    flush_local();
    REQUESTED.load(Ordering::Relaxed)
}

/// The live-heap high-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    flush_local();
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// Restarts the high-water mark at the current live size.
pub fn reset_peak() {
    flush_local();
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
