//! The repository's benchmark: four HAMR-vs-mapred workloads measured
//! end to end, per-layer call timings, and a traced run. See
//! `benchmark/README.md`.

pub mod alloc;
pub mod calls;
pub mod catalogue;
pub mod compare;
pub mod harness;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
