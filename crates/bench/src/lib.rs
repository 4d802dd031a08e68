//! The evaluation harness: reference numbers from the paper and the
//! machinery that regenerates every table and figure (see DESIGN.md's
//! experiment index).

use hamr_workloads::histogram_movies::HistogramMovies;
use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::{all_benchmarks, BenchOutput, Benchmark, Env, SimParams};
use std::time::Duration;

/// One row of the paper's Table 2.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    pub name: &'static str,
    pub data_size: &'static str,
    /// IDH 3.0 execution time, seconds.
    pub idh_secs: f64,
    /// HAMR execution time, seconds.
    pub hamr_secs: f64,
}

impl PaperRow {
    pub fn speedup(&self) -> f64 {
        self.idh_secs / self.hamr_secs
    }
}

/// Table 2 of the paper, verbatim.
pub const PAPER_TABLE2: [PaperRow; 8] = [
    PaperRow {
        name: "K-Means",
        data_size: "300GB",
        idh_secs: 5215.079,
        hamr_secs: 505.685,
    },
    PaperRow {
        name: "Classification",
        data_size: "300GB",
        idh_secs: 2773.660,
        hamr_secs: 212.815,
    },
    PaperRow {
        name: "PageRank",
        data_size: "20GB",
        idh_secs: 2162.102,
        hamr_secs: 158.853,
    },
    PaperRow {
        name: "KCliques",
        data_size: "168MB",
        idh_secs: 1161.246,
        hamr_secs: 100.945,
    },
    PaperRow {
        name: "WordCount",
        data_size: "16GB",
        idh_secs: 89.904,
        hamr_secs: 75.078,
    },
    PaperRow {
        name: "HistogramMovies",
        data_size: "30GB",
        idh_secs: 59.522,
        hamr_secs: 34.542,
    },
    PaperRow {
        name: "HistogramRatings",
        data_size: "30GB",
        idh_secs: 66.694,
        hamr_secs: 252.198,
    },
    PaperRow {
        name: "NaiveBayes",
        data_size: "10GB",
        idh_secs: 263.078,
        hamr_secs: 108.29,
    },
];

/// Table 3 of the paper: HAMR with a combiner flowlet.
/// (benchmark, HAMR+combiner seconds, speedup vs IDH)
pub const PAPER_TABLE3: [(&str, f64, f64); 2] = [
    ("HistogramMovies", 33.234, 1.79),
    ("HistogramRatings", 215.911, 0.31),
];

/// One measured comparison row.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    pub name: String,
    pub mapred: Duration,
    pub hamr: Duration,
    pub records: u64,
    /// The engines' checksums and record counts agree.
    pub checksums_match: bool,
    /// HAMR with a combiner flowlet, on the rows of the paper's Table 3;
    /// `None` on every other row.
    pub combined: Option<CombinedRun>,
}

/// A Table 3 run: HAMR with a combiner flowlet, in the row's environment.
#[derive(Debug, Clone, Copy)]
pub struct CombinedRun {
    pub elapsed: Duration,
    /// Its checksum and record count equal plain HAMR's.
    pub matches_plain: bool,
}

impl MeasuredRow {
    pub fn speedup(&self) -> f64 {
        self.mapred.as_secs_f64() / self.hamr.as_secs_f64()
    }

    /// Every run of the row computed the same answer.
    pub fn ok(&self) -> bool {
        self.checksums_match && self.combined.is_none_or(|c| c.matches_plain)
    }
}

/// Run HAMR with a combiner flowlet over the input `env` holds, for the
/// benchmarks the paper's Table 3 re-times; `None` for the rest.
fn run_combiner(name: &str, env: &Env) -> Option<Result<BenchOutput, String>> {
    Some(match name {
        "HistogramMovies" => HistogramMovies::default().run_hamr_with(env, true),
        "HistogramRatings" => HistogramRatings::default().run_hamr_with(env, true),
        _ => return None,
    })
}

/// Run one benchmark on both engines in a fresh environment, and, on a
/// Table 3 row, HAMR with a combiner flowlet after them.
pub fn run_comparison(bench: &dyn Benchmark, params: &SimParams) -> MeasuredRow {
    let env = Env::new(params.clone());
    bench.seed(&env).expect("seed");
    // Baseline first, then HAMR, each cold, on the same inputs.
    let mr = bench.run_mapred(&env).expect("mapred run");
    let hamr = bench.run_hamr(&env).expect("hamr run");
    let agree =
        |a: &BenchOutput, b: &BenchOutput| a.checksum == b.checksum && a.records == b.records;
    let combined = run_combiner(bench.name(), &env).map(|run| {
        let run = run.expect("hamr combiner run");
        CombinedRun {
            elapsed: run.elapsed,
            matches_plain: agree(&run, &hamr),
        }
    });
    MeasuredRow {
        name: bench.name().to_string(),
        mapred: mr.elapsed,
        hamr: hamr.elapsed,
        records: hamr.records,
        checksums_match: agree(&hamr, &mr),
        combined,
    }
}

/// Run the full Table 2 suite (or a filtered subset).
pub fn run_table2(params: &SimParams, filter: Option<&str>) -> Vec<MeasuredRow> {
    all_benchmarks()
        .iter()
        .filter(|b| filter.is_none_or(|f| b.name().to_lowercase().contains(&f.to_lowercase())))
        .map(|b| {
            eprintln!("running {} ...", b.name());
            run_comparison(b.as_ref(), params)
        })
        .collect()
}

/// Parse `--scale X` / `--filter NAME` style harness arguments.
pub fn parse_args() -> (SimParams, Option<String>) {
    let mut params = SimParams::paper_scaled();
    let mut filter = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().expect("--scale needs a value");
                params.scale = v.parse().expect("--scale takes a float");
            }
            "--nodes" => {
                let v = args.next().expect("--nodes needs a value");
                params.nodes = v.parse().expect("--nodes takes an integer");
            }
            "--filter" => {
                filter = Some(args.next().expect("--filter needs a value"));
            }
            "--quick" => {
                params.scale *= 0.2;
            }
            other => panic!("unknown argument {other}; known: --scale --nodes --filter --quick"),
        }
    }
    (params, filter)
}

/// Paper row for a benchmark name, if it is in Table 2.
pub fn paper_row(name: &str) -> Option<&'static PaperRow> {
    PAPER_TABLE2.iter().find(|r| r.name == name)
}

/// Render a measured row against the paper's expectation.
pub fn format_row(measured: &MeasuredRow, paper: Option<&PaperRow>) -> String {
    let paper_speedup = paper
        .map(|p| format!("{:>7.2}x", p.speedup()))
        .unwrap_or_else(|| "      —".into());
    format!(
        "{:<18} {:>9.3}s {:>9.3}s {:>7.2}x {} {:>10} {}",
        measured.name,
        measured.mapred.as_secs_f64(),
        measured.hamr.as_secs_f64(),
        measured.speedup(),
        paper_speedup,
        measured.records,
        if measured.checksums_match {
            "ok"
        } else {
            "MISMATCH"
        },
    )
}

/// Header matching [`format_row`].
pub fn header() -> String {
    format!(
        "{:<18} {:>10} {:>10} {:>8} {:>8} {:>10} {}",
        "benchmark", "mapred", "hamr", "speedup", "paper", "records", "check"
    )
}

/// Render a row's Table 3 line — the speedup is the baseline's time
/// over the combiner run's — or `None` when the row has no combiner run.
/// `ok` means all three runs computed the same answer.
pub fn format_table3_row(measured: &MeasuredRow) -> Option<String> {
    let combined = measured.combined?;
    let paper_speedup = PAPER_TABLE3
        .iter()
        .find(|(name, _, _)| *name == measured.name)
        .map(|(_, _, speedup)| format!("{speedup:>7.2}x"))
        .unwrap_or_else(|| "      —".into());
    Some(format!(
        "{:<18} {:>9.3}s {:>9.3}s {:>12.3}s {:>7.2}x {} {}",
        measured.name,
        measured.mapred.as_secs_f64(),
        measured.hamr.as_secs_f64(),
        combined.elapsed.as_secs_f64(),
        measured.mapred.as_secs_f64() / combined.elapsed.as_secs_f64(),
        paper_speedup,
        if measured.ok() { "ok" } else { "MISMATCH" },
    ))
}

/// Header matching [`format_table3_row`].
pub fn table3_header() -> String {
    format!(
        "{:<18} {:>10} {:>10} {:>13} {:>8} {:>8} {}",
        "benchmark", "mapred", "hamr", "hamr+combiner", "speedup", "paper", "check"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table2_speedups_match_published() {
        // Spot-check against the printed speedup column of the paper.
        let by_name = |n: &str| paper_row(n).unwrap_or_else(|| panic!("row {n}"));
        assert!((by_name("K-Means").speedup() - 10.31).abs() < 0.01);
        assert!((by_name("Classification").speedup() - 13.03).abs() < 0.01);
        assert!((by_name("PageRank").speedup() - 13.61).abs() < 0.01);
        assert!((by_name("KCliques").speedup() - 11.50).abs() < 0.01);
        assert!((by_name("WordCount").speedup() - 1.20).abs() < 0.01);
        assert!((by_name("HistogramMovies").speedup() - 1.72).abs() < 0.01);
        assert!((by_name("HistogramRatings").speedup() - 0.26).abs() < 0.01);
        assert!((by_name("NaiveBayes").speedup() - 2.43).abs() < 0.01);
    }

    #[test]
    fn row_formatting_is_stable() {
        let row = MeasuredRow {
            name: "WordCount".into(),
            mapred: Duration::from_millis(1200),
            hamr: Duration::from_millis(600),
            records: 42,
            checksums_match: true,
            combined: None,
        };
        let s = format_row(&row, paper_row("WordCount"));
        assert!(s.contains("WordCount"));
        assert!(s.contains("2.00x"));
        assert!(s.contains("ok"));
        assert_eq!(format_table3_row(&row), None);
    }

    #[test]
    fn a_table3_row_checks_all_three_runs() {
        let mut row = MeasuredRow {
            name: "HistogramMovies".into(),
            mapred: Duration::from_millis(900),
            hamr: Duration::from_millis(600),
            records: 9,
            checksums_match: true,
            combined: Some(CombinedRun {
                elapsed: Duration::from_millis(300),
                matches_plain: true,
            }),
        };
        let s = format_table3_row(&row).expect("a combiner run");
        assert!(s.contains("3.00x"), "speedup over the combiner run: {s}");
        assert!(s.contains("1.79x"), "the paper's Table 3 speedup: {s}");
        assert!(s.ends_with(" ok"));
        row.combined.as_mut().expect("a combiner run").matches_plain = false;
        assert!(!row.ok());
        assert!(format_table3_row(&row).unwrap().ends_with(" MISMATCH"));
    }
}
