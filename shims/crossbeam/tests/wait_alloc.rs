//! The node runtime calls `select!` every time it goes idle, so a wait
//! must not allocate. A counting allocator tallies the allocations of
//! the test's own thread only: the harness's threads allocate beside
//! it.

use crossbeam::channel::{unbounded, Receiver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: forwards every call to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn a_select_that_waits_allocates_nothing_after_the_first() {
    let (_tx1, rx1) = unbounded::<u32>();
    let (tx2, rx2) = unbounded::<u32>();
    let wait = |rx1: &Receiver<u32>, rx2: &Receiver<u32>| {
        let mut timed_out = false;
        crossbeam::channel::select! {
            recv(rx1) -> _v => {}
            recv(rx2) -> _v => {}
            default(Duration::from_micros(200)) => { timed_out = true; }
        }
        timed_out
    };
    // The first wait makes the thread's signal and grows both watcher
    // lists; the first send grows the queue.
    assert!(wait(&rx1, &rx2));
    tx2.send(0).unwrap();
    assert!(!wait(&rx1, &rx2));
    let before = ALLOCS.with(Cell::get);
    for _ in 0..20 {
        assert!(wait(&rx1, &rx2));
    }
    tx2.send(1).unwrap();
    assert!(!wait(&rx1, &rx2));
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "a wait allocated");
}
