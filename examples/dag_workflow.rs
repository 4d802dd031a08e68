//! A multi-phase DAG workflow — the paper's §3.2 pitch: what takes a
//! *chain of MapReduce jobs* in Hadoop is one HAMR job.
//!
//! The workflow loads a movie-ratings dataset **once** and feeds two
//! analyses from the same loader (the data-reuse case):
//!
//! ```text
//!                     ┌─> per-movie average ─> rating histogram ─┐
//!  loader ─> parser ──┤                                          ├─> captured
//!                     └─> per-user activity ─> top-user report ──┘
//! ```
//!
//! Also prints the Graphviz DOT rendering of the job graph.
//!
//! ```sh
//! cargo run --release --example dag_workflow
//! ```

use hamr::core::{typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder};
use hamr::workloads::gen::movies::{mean_rating, movie_lines, parse_movie_line};

fn main() {
    let cluster = Cluster::new(ClusterConfig::local(4, 2));
    let mut job = JobBuilder::new("movie-analytics");

    let lines = movie_lines(5_000, 800, 12, 7);
    let loader = job.add_loader("MovieLoader", typed::vec_loader(lines));

    // One parser feeds both branches (load once, use twice — §3.2).
    let parser = job.add_map(
        "Parser",
        typed::map_fn(|_line_no: u64, line: String, out: &mut Emitter| {
            if let Some((movie, ratings)) = parse_movie_line(&line) {
                // Branch A (port 0): the movie with its mean rating.
                if let Some(avg) = mean_rating(&ratings) {
                    out.emit_t(0, &movie, &avg);
                }
                // Branch B (port 1): one record per (user, rating).
                for (user, rating) in ratings {
                    out.emit_t(1, &user, &u64::from(rating));
                }
            }
        }),
    );

    // Branch A: histogram of average ratings in half-star bins.
    let bin_map = job.add_map(
        "HalfStarBin",
        typed::map_fn(|_movie: u64, avg: f64, out: &mut Emitter| {
            out.emit_t(0, &((avg * 2.0).floor() as u64), &1u64);
        }),
    );
    let histogram = job.add_partial_reduce("Histogram", typed::sum_reducer::<u64>());

    // Branch B: number of ratings per user, keeping only heavy raters.
    let activity = job.add_partial_reduce(
        "UserActivity",
        typed::partial_fn::<u64, u64, u64, _, _, _>(
            |_rating| 1,
            |n, _rating| n + 1,
            |_ctx, user, n, out: &mut Emitter| {
                if n >= 10 {
                    out.output_t(&user, &n);
                }
            },
        ),
    );

    job.connect(loader, parser, Exchange::Local);
    job.connect(parser, bin_map, Exchange::Local); // port 0
    job.connect(parser, activity, Exchange::Hash); // port 1
    job.connect(bin_map, histogram, Exchange::Hash);
    job.capture_output(histogram);
    job.capture_output(activity);

    let graph = job.build().expect("valid DAG");
    println!("--- job graph (Graphviz DOT) ---");
    println!("{}", graph.to_dot());

    let result = cluster.run(graph).expect("job runs");

    let mut hist = result.typed_output::<u64, u64>(histogram);
    hist.sort();
    println!("--- rating histogram (half-star bins) ---");
    for (bin, count) in hist {
        println!(
            "  [{:.1}, {:.1})  {count:>6}  {}",
            bin as f64 / 2.0,
            (bin + 1) as f64 / 2.0,
            "#".repeat((count / 40).max(1) as usize)
        );
    }

    let heavy = result.typed_output::<u64, u64>(activity);
    println!(
        "--- heavy raters (>= 10 ratings): {} users ---",
        heavy.len()
    );
    println!(
        "--- one loader, two analyses, zero intermediate jobs: {} bins shuffled ---",
        result.metrics.shuffled_messages
    );
}
