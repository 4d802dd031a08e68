//! Harness self-tests: the comparison machinery must agree with the
//! benchmarks' own equivalence checks, and the argument plumbing must
//! produce the documented environments.

use hamr_bench::{run_comparison, run_table2, PAPER_TABLE2};
use hamr_workloads::{wordcount::WordCount, SimParams};

#[test]
fn run_comparison_validates_checksums() {
    // Untimed, tiny: exercising the full seed -> mapred -> hamr ->
    // compare pipeline.
    let params = SimParams::test(2, 2);
    let row = run_comparison(&WordCount::default(), &params);
    assert_eq!(row.name, "WordCount");
    assert!(row.checksums_match, "engines must agree");
    assert!(row.records > 0);
    assert!(row.speedup().is_finite());
}

#[test]
fn filter_selects_single_benchmark() {
    let params = SimParams::test(2, 1);
    let rows = run_table2(&params, Some("wordcount"));
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].name, "WordCount");
    assert!(rows[0].combined.is_none(), "not a Table 3 row");
}

#[test]
fn the_histogram_rows_carry_table3s_combiner_run() {
    let rows = run_table2(&SimParams::test(2, 2), Some("histogram"));
    let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["HistogramMovies", "HistogramRatings"]);
    for row in &rows {
        let combined = row.combined.expect("a combiner time");
        assert!(row.checksums_match, "{}: engines disagree", row.name);
        assert!(
            combined.matches_plain,
            "{}: combiner changed the answer",
            row.name
        );
    }
}

#[test]
fn paper_reference_data_is_complete() {
    assert_eq!(PAPER_TABLE2.len(), 8);
    for row in &PAPER_TABLE2 {
        assert!(row.idh_secs > 0.0);
        assert!(row.hamr_secs > 0.0);
        assert!(!row.data_size.is_empty());
    }
    // Exactly one inversion in the paper's Table 2.
    let inversions = PAPER_TABLE2.iter().filter(|r| r.speedup() < 1.0).count();
    assert_eq!(inversions, 1);
}
