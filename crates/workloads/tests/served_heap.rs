//! Heap a served PageRank iteration holds, per page. Once the in-link
//! lists are resident, an iteration's update job is a map over them,
//! one record per page, that sums each page's in-link slots of its
//! node's `pr/c` column, one lookup, as its record arrives: it holds no
//! per-key state at all. The rank-ship job before it builds one column
//! per node, 8 B a page with out-links. A grouping reduce in the
//! update's place would hold every in-edge until the barrier, in
//! proportion to edges.

use hamr_workloads::pagerank::PageRank;
use hamr_workloads::{Benchmark, Env, SimParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes allocated and not yet freed, process-wide, and the most there
/// were since the last [`reset_peak`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Start a new peak at the bytes live now; returns them.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Counts live bytes around `System`.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only counts around the call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_served_iteration_holds_reduce_state_per_page_not_per_edge() {
    let env = Env::new(SimParams::test(2, 2));
    let bench = PageRank::default();
    bench.seed(&env).expect("seed");
    env.reset_namespace("pr/");
    // Three iterations: the third is served from the resident cache,
    // as the fourth will be.
    for iter in 0..3 {
        bench.run_hamr_iteration(&env, iter).expect("iteration");
    }
    let base = reset_peak();
    bench
        .run_hamr_iteration(&env, 3)
        .expect("the fourth iteration");
    let held = PEAK.load(Ordering::Relaxed) - base;

    let (mut pages, mut edges) = (0u64, 0u64);
    for node in 0..env.params.nodes {
        env.hamr.kv().shard(node).for_each(|k, v| {
            if k.starts_with(b"pr/r") {
                pages += 1;
            } else if k.starts_with(b"pr/i") {
                // A packed varint list: one byte of each is below 0x80.
                edges += v.iter().filter(|&&b| b < 0x80).count() as u64;
            }
        });
    }
    assert!(
        pages >= 1_000 && edges > 5_000,
        "{pages} pages, {edges} edges"
    );
    // Measured on 1,000 pages and 7,886 edges: 99 B a page with the
    // update a map over in-link lists, with one `pr/c` column or one
    // `pr/c` entry per page; 112–160 B a page when a partial
    // reduce folded each `(src, deg)` in-edge as it arrived, beside two
    // busy loops too; 312–379 B a page when it grouped every in-edge
    // for a reduce.
    let per_page = held as f64 / pages as f64;
    assert!(
        per_page <= 240.0,
        "the fourth iteration held {held} B over the {base} B live before it: \
         {per_page:.1} B a page over {pages} pages ({edges} edges)"
    );
}
