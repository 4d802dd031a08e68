//! Allocations a spilled reduce fire adds, per shuffled record.
//! WordCount's full-reduce ablation (`CountReduce`, the benchmarks'
//! simplest `Reduce`) runs twice on one small cluster shape: on a
//! 16 KiB memory budget, where it spills and fires through the merge of
//! its runs, and on the default budget, where nothing spills. The merge
//! borrows each key and value from its runs' buffers, and the in-memory
//! remainder is one more run in one buffer, so spilling costs
//! allocations per run and per read, not per record.

use hamr_core::RuntimeConfig;
use hamr_trace::Labels;
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{BenchOutput, Benchmark, Env, SimParams};
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

/// WordCount's full-reduce run on a `memory_budget`-byte budget: its
/// output, the allocations the run made and the bytes its reduce
/// spilled.
fn full_reduce_wordcount(memory_budget: usize) -> (BenchOutput, u64, u64) {
    let runtime = RuntimeConfig {
        memory_budget,
        ..Default::default()
    };
    let env = Env::with_hamr_runtime(SimParams::test(2, 2), runtime);
    let bench = WordCount::default();
    bench.seed(&env).expect("seed");
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = bench.run_hamr_with(&env, false).expect("hamr run");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let spilled = env
        .hamr
        .registry()
        .counter("spilled_bytes_total", Labels::new().engine("hamr"))
        .get();
    (out, allocs, spilled)
}

#[test]
fn a_spilled_fire_allocates_under_one_and_a_half_objects_per_shuffled_record() {
    let (spilling, spill_allocs, spilled) = full_reduce_wordcount(16 << 10);
    let (resident, resident_allocs, not_spilled) =
        full_reduce_wordcount(RuntimeConfig::default().memory_budget);
    assert!(spilled > 0, "the 16 KiB run must spill");
    assert_eq!(not_spilled, 0, "the default run must not spill");
    assert_eq!(
        (spilling.checksum, spilling.records),
        (resident.checksum, resident.records),
        "spilling changed the answer"
    );
    let records: u64 = spilling.jobs.iter().filter_map(|j| j.shuffle_records).sum();
    assert!(records > 0);
    // Measured: about 26.3 KB spilled and 0.04 more allocations a
    // record, the arena being given back at every spill; 0.02 while a
    // spill kept its capacity.
    let extra = spill_allocs as f64 - resident_allocs as f64;
    let per_record = extra / records as f64;
    assert!(
        per_record <= 1.5,
        "{spill_allocs} allocations spilling, {resident_allocs} not, over {records} shuffled \
         records: {per_record:.2} more a record"
    );
}
