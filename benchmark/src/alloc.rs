//! Counting global allocator: live heap, peak live heap and allocation
//! count for the whole process, so `hamr_peak_heap_mb` and
//! `core.allocs_per_rec` need nothing from the engine.
//!
//! Each thread batches its updates and publishes them once they add
//! up to [`FLUSH_BYTES`]: an atomic per allocation on shared cache
//! lines would tax exactly the allocation-heavy paths the benchmark
//! is meant to time. The price is resolution — live and peak are
//! exact to `FLUSH_BYTES` per running thread, and a thread that exits
//! keeps its unpublished remainder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Bytes a thread may allocate or free before it publishes.
const FLUSH_BYTES: i64 = 64 << 10;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // (unpublished byte delta, unpublished allocation count). `const`
    // and without a destructor, so the allocator may touch it at any
    // point of a thread's life without allocating.
    static PENDING: Cell<(i64, u64)> = const { Cell::new((0, 0)) };
}

fn publish(bytes: i64, allocs: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCS.fetch_add(allocs, Ordering::Relaxed);
}

fn record(bytes: i64, allocs: u64) {
    let batched = PENDING.try_with(|p| {
        let (b, a) = p.get();
        let (b, a) = (b + bytes, a + allocs);
        if b.abs() >= FLUSH_BYTES {
            p.set((0, 0));
            publish(b, a);
        } else {
            p.set((b, a));
        }
    });
    if batched.is_err() {
        publish(bytes, allocs);
    }
}

/// Publish the calling thread's batch (the harness calls this before
/// it reads a counter).
fn flush() {
    let _ = PENDING.try_with(|p| {
        let (b, a) = p.replace((0, 0));
        publish(b, a);
    });
}

/// The process allocator; installed by the library's
/// `#[global_allocator]`.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only counts around the call, so `System`'s contract is
// the one callers get.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size() as i64, 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size() as i64, 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, which
        // means it came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        record(-(layout.size() as i64), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size as i64 - layout.size() as i64, 1);
        }
        p
    }
}

/// Live heap in bytes, as published so far.
pub fn live_bytes() -> i64 {
    flush();
    LIVE.load(Ordering::Relaxed)
}

/// Allocations (including reallocations) since process start.
pub fn alloc_count() -> u64 {
    flush();
    ALLOCS.load(Ordering::Relaxed)
}

/// Forget the peak so far; returns the live heap the new peak starts
/// from.
pub fn reset_peak() -> i64 {
    let live = live_bytes();
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Highest live heap since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    flush();
    PEAK.load(Ordering::Relaxed)
}
