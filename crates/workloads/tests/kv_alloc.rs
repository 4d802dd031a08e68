//! Allocations of a served PageRank iteration, per reduced edge. Once
//! the reverse adjacency is resident, an iteration is a rank-ship job
//! (each node's ranks broadcast into every node's `pr/c` copy) and an
//! update job whose `PRUpdateRed` fold reads one rank copy per in-edge
//! from the KV store and whose finish puts one rank per page. The fold
//! builds its key on the stack, the rest build keys and values in reused
//! buffers, a KV put copies them into its stripe's arena and a lookup
//! borrows the value in place, so the iteration allocates per job, per
//! task, per frame and per page, not per edge or per put.

use hamr_codec::Codec;
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::{Benchmark, Env, SimParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts allocations and reallocations, process-wide.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only counts around the call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A fresh PageRank chain of `iterations`: the allocations its HAMR run
/// made, and the edges in its adjacency (the records every update's
/// `PRUpdateRed` folds, bar one presence sentinel per page).
fn chain(iterations: usize) -> (u64, u64) {
    let env = Env::new(SimParams::test(2, 2));
    let bench = PageRank {
        iterations,
        ..PageRank::default()
    };
    bench.seed(&env).expect("seed");
    let before = ALLOCS.load(Ordering::Relaxed);
    bench.run_hamr(&env).expect("hamr run");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let mut edges = 0;
    for node in 0..env.params.nodes {
        env.hamr.kv().shard(node).for_each(|k, v| {
            if k.starts_with(b"pr/a") {
                edges += Vec::<u64>::from_bytes(v).expect("adjacency").len() as u64;
            }
        });
    }
    (allocs, edges)
}

#[test]
fn a_served_iteration_allocates_under_four_tenths_of_an_object_per_reduced_edge() {
    let (three, edges) = chain(3);
    let (four, _) = chain(4);
    assert!(edges > 5_000, "{edges} edges");
    // The fourth iteration, served like the third: its rank-ship and
    // update jobs. Measured: 0.27 an edge (2,088 allocations over 7,886
    // edges).
    let per_edge = four.saturating_sub(three) as f64 / edges as f64;
    assert!(
        per_edge <= 0.4,
        "{three} allocations over 3 iterations, {four} over 4, {edges} edges: \
         {per_edge:.3} an edge"
    );
}
