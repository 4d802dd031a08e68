//! Regenerates the paper's Tables 2 and 3 (Fig 3 draws Table 2's
//! speedup column: series (a) is rows 1–4, series (b) rows 5–8).
//! Table 2: execution time and speedup for the eight benchmarks,
//! MapReduce baseline vs HAMR, on the scaled simulated cluster. Table 3:
//! the two histogram rows again with HAMR's combiner flowlet, run in the
//! same environment as their Table 2 runs. Flags: --scale F, --nodes N,
//! --filter NAME, --quick. Exits 1 if any run's answer disagrees.

use hamr_bench::{
    format_row, format_table3_row, header, paper_row, parse_args, run_table2, table3_header,
};

fn main() {
    let (params, filter) = parse_args();
    println!(
        "== Table 2: performance comparison (nodes={} threads={} scale={}) ==",
        params.nodes, params.threads_per_node, params.scale
    );
    println!("{}", header());
    let rows = run_table2(&params, filter.as_deref());
    for row in &rows {
        println!("{}", format_row(row, paper_row(&row.name)));
    }
    let table3: Vec<String> = rows.iter().filter_map(format_table3_row).collect();
    if !table3.is_empty() {
        println!("\n== Table 3: HAMR using Combiner ==");
        println!("{}", table3_header());
        for line in table3 {
            println!("{line}");
        }
    }
    if !rows.iter().all(|row| row.ok()) {
        eprintln!("WARNING: the runs of at least one benchmark disagreed");
        std::process::exit(1);
    }
}
