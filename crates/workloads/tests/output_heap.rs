//! The heap a job's captured output costs beyond its own bytes. A
//! WordCount over a wide vocabulary captures one pair per distinct
//! word; the `JobResult` keeps those pairs in the frames the counting
//! tasks wrote them to, so what it holds is their encoded size plus a
//! few bytes of frame and map bookkeeping per frame, not per pair.

use hamr_codec::write_entry;
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{Benchmark, Env, SimParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

static LIVE: AtomicI64 = AtomicI64::new(0);

/// Counts the bytes live on the heap, process-wide.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only counts around the call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_job_result_holds_under_one_byte_per_output_record_beyond_its_pairs() {
    let env = Env::new(SimParams::test(2, 1));
    let bench = WordCount {
        lines: 300_000,
        words_per_line: 10,
        vocab: 2_000_000,
    };
    bench.seed(&env).expect("seed");
    let (graph, count) = WordCount::hamr_graph(true).expect("graph");
    let result = env.hamr.run(graph).expect("hamr run");
    let captured = result.output(count);
    let records = captured.len();
    assert!(records >= 50_000, "{records} distinct words");
    let mut entry = Vec::new();
    let encoded: usize = (captured.iter())
        .map(|(k, v)| {
            entry.clear();
            write_entry(&mut entry, k, v);
            entry.len()
        })
        .sum();
    drop(entry);
    // Every node has joined: what dropping the result frees is what it
    // held.
    let before = LIVE.load(Ordering::Relaxed);
    drop(result);
    let held = (before - LIVE.load(Ordering::Relaxed)) as usize;
    assert!(held >= encoded, "{held} B held for {encoded} B of pairs");
    let per_record = (held - encoded) as f64 / records as f64;
    // 0.22 B here (a 40-byte `Frame` per `bin_capacity` = 1024 pairs,
    // and the job's metrics); a `Record` of two `Bytes` views per pair
    // read 64.7 B.
    assert!(
        per_record < 1.0,
        "{per_record:.2} B per record over {encoded} B of pairs ({held} B held, {records} records)"
    );
}
