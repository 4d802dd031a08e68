//! Streaming WordCount: the same programming model as batch, but over
//! an epoch-punctuated stream — HAMR's "one engine for both layers of
//! the Lambda architecture" claim (paper §1).
//!
//! A stream source emits a burst of log lines per epoch; a windowed
//! partial reduce flushes per-word counts at every epoch boundary.
//!
//! ```sh
//! cargo run --example streaming_wordcount
//! ```

use hamr::core::{stream, typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder};

fn main() {
    let cluster = Cluster::new(ClusterConfig::local(3, 2));

    let mut job = JobBuilder::new("streaming-wordcount");
    // Each node produces one burst of lines per epoch, 4 epochs total.
    let source = job.add_stream(
        "log-stream",
        stream::bounded_stream(4, |ctx, epoch, out: &mut Emitter| {
            for i in 0..3u64 {
                let line = format!("epoch{epoch} node{} event{}", ctx.node, i % 2);
                out.emit_t(0, &(epoch * 100 + i), &line);
            }
        }),
    );
    let splitter = job.add_map(
        "split",
        typed::map_fn(|_k: u64, line: String, out: &mut Emitter| {
            for word in line.split_whitespace() {
                out.emit_t(0, &word.to_string(), &1u64);
            }
        }),
    );
    // Windowed aggregation: emits (word, count-in-window) at each
    // epoch boundary, then resets — a tumbling window with no extra
    // code versus the batch version.
    let windowed = job.add_partial_reduce(
        "window-count",
        typed::partial_fn::<String, u64, u64, _, _, _>(
            |v| v,
            |acc, v| acc + v,
            |_ctx, word, count, out: &mut Emitter| out.output_t(&word, &count),
        ),
    );
    job.connect(source, splitter, Exchange::Local);
    job.connect(splitter, windowed, Exchange::Hash);
    job.capture_output(windowed);

    let result = cluster
        .run(job.build().expect("valid graph"))
        .expect("job runs");
    let mut out = result.typed_output::<String, u64>(windowed);
    out.sort();
    println!("windowed word counts ({} flush records):", out.len());
    for (word, count) in out {
        println!("  {count:>3}  {word}");
    }
}
