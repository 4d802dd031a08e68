//! Allocations per map-output record on a combiner WordCount. A record
//! is copied once, into the sort buffer's `kvbuffer`; the sort, the
//! combiner, the spill merge and the reduce merge only borrow it, so
//! the job's allocations grow with its groups, tasks and buffers, not
//! with its records.

use hamr_codec::write_varint;
use hamr_mapred::{line_map_fn, reduce_fn, JobConf, MrCluster, ReduceOutput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

#[test]
fn a_combiner_wordcount_allocates_under_half_an_object_per_record() {
    let cluster = MrCluster::in_memory(2, 2);
    let mut w = cluster.dfs().create("words.txt").unwrap();
    for i in 0..12_000u64 {
        let line: Vec<String> = (0..10)
            .map(|j| format!("w{}", (i * 7 + j * 13) % 1000))
            .collect();
        w.write_line(&line.join(" "));
    }
    w.seal().unwrap();
    let mapper = line_map_fn(|_off, line, out| {
        let mut key = Vec::new();
        for word in line.split_whitespace() {
            key.clear();
            write_varint(word.len() as u64, &mut key);
            key.extend_from_slice(word.as_bytes());
            out.emit(&key, &[1]);
        }
    });
    let reducer = Arc::new(reduce_fn(
        |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
            out.emit_t(&k, &vs.iter().sum::<u64>());
        },
    ));
    let job = JobConf::new(
        "wordcount",
        vec!["words.txt".into()],
        "out",
        Arc::new(mapper),
        reducer.clone(),
    )
    .with_combiner(reducer);
    let before = ALLOCS.load(Ordering::Relaxed);
    let stats = cluster.run(&job).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(stats.map_records_out, 120_000);
    let per_record = allocs as f64 / stats.map_records_out as f64;
    assert!(
        per_record <= 0.5,
        "{allocs} allocations for {} records: {per_record:.3} a record",
        stats.map_records_out
    );
}
