//! The harness's own parts: order statistics, the span recorder, the
//! call-loop batching, `compare`'s verdicts, and the catalogue.

use hamr_benchmark::calls::{time_batches, TIMED_BATCHES, WARMUP_BATCHES};
use hamr_benchmark::catalogue::{parse_pinned, Catalogue};
use hamr_benchmark::compare::{compare, parse_result, verdict, worse_by, Measured, Verdict};
use hamr_benchmark::harness::reported;
use hamr_benchmark::spans::Recorder;
use hamr_benchmark::stats::{log2_bucket_quantile, median, quartiles, Summary};
use hamr_benchmark::workloads;
use hamr_workloads::Env;

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
    assert_eq!(quartiles(&[3.0]), [3.0, 3.0, 3.0]);
    // Two values: Python extrapolates to 0.75 and 2.25; ours stay inside.
    assert_eq!(quartiles(&[1.0, 2.0]), [1.0, 1.5, 2.0]);
}

#[test]
fn summary_orders_its_input_and_reports_spread() {
    let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0]).unwrap();
    assert_eq!((s.min, s.median, s.max, s.n), (1.0, 5.0, 9.0, 5));
    assert_eq!((s.q1, s.q3), (2.0, 8.0));
    assert!((s.spread() - 1.2).abs() < 1e-12);
    assert!(Summary::of(&[]).is_none());
    assert_eq!(Summary::of(&[4.0]).unwrap().spread(), 0.0);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[2.0, 4.0]), 3.0);
}

#[test]
fn bucket_quantiles_interpolate_inside_the_bucket() {
    // Bucket 0 holds zeros; bucket b holds [2^(b-1), 2^b).
    assert_eq!(log2_bucket_quantile(&[], 0.5), 0.0);
    assert_eq!(log2_bucket_quantile(&[10, 0, 0], 0.99), 0.0);
    // 100 samples in [8, 16): the median sits mid-bucket.
    let mut buckets = vec![0u64; 8];
    buckets[4] = 100;
    assert_eq!(log2_bucket_quantile(&buckets, 0.5), 12.0);
    // 90 fast samples, 10 slow: p99 lands in the slow bucket.
    buckets[7] = 10;
    buckets[4] = 90;
    let p99 = log2_bucket_quantile(&buckets, 0.99);
    assert!((64.0..128.0).contains(&p99), "{p99}");
}

#[test]
fn spans_nest_and_self_time_excludes_children() {
    let rec = Recorder::new(true);
    rec.next_trace();
    rec.span("outer", || {
        rec.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        rec.span("inner", || ());
    });
    rec.next_trace();
    rec.span("second", || ());
    rec.check_nesting().unwrap();

    let spans = rec.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert_eq!((spans[0].trace, spans[1].trace, spans[3].trace), (1, 1, 2));

    let own = rec.self_times_ns();
    let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
    assert_eq!(own[0], dur(0) - dur(1) - dur(2));
    assert_eq!(own[1], dur(1));
    assert!(dur(1) >= 5_000_000);

    let parsed = hamr_trace::json::parse(&rec.to_json()).unwrap();
    assert_eq!(parsed.as_arr().unwrap().len(), 4);
}

#[test]
fn a_disabled_recorder_records_nothing() {
    let rec = Recorder::new(false);
    assert_eq!(rec.span("quiet", || 7), 7);
    assert!(rec.spans().is_empty());
    rec.set_enabled(true);
    rec.span("loud", || ());
    assert_eq!(rec.spans().len(), 1);
}

#[test]
fn call_loops_warm_up_then_time_ten_batches_per_operation() {
    let rec = Recorder::new(true);
    let mut batches = 0;
    let per_op = time_batches(&rec, "test.loop", || {
        batches += 1;
        std::thread::sleep(std::time::Duration::from_millis(2));
        4
    });
    assert_eq!(batches, WARMUP_BATCHES + TIMED_BATCHES);
    assert_eq!(per_op.len(), TIMED_BATCHES);
    // 2 ms over 4 operations: at least 0.5 ms each.
    assert!(per_op.iter().all(|&ns| ns >= 500_000.0), "{per_op:?}");
    // One span around the whole loop, warm-up included.
    assert_eq!(rec.spans().len(), 1);
}

fn summary(median: f64, q1: f64, q3: f64) -> Measured {
    Measured {
        value: median,
        samples: Summary {
            median,
            q1,
            q3,
            min: q1,
            max: q3,
            n: 11,
        },
    }
}

#[test]
fn job_times_are_reported_as_the_fastest_sample() {
    let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
    for time in ["setup_s", "hamr_wall_s", "mapred_wall_s"] {
        assert_eq!(reported(time, &s), 1.0);
    }
    assert_eq!(reported("hamr_peak_heap_mb", &s), 2.0);
    assert_eq!(reported("codec.frame_push_ns", &s), 2.0);
}

#[test]
fn verdicts_separate_regression_noise_and_no_change() {
    assert!((worse_by(1.0, 1.2, false) - 0.2).abs() < 1e-12);
    assert!((worse_by(1.0, 1.2, true) + 0.2).abs() < 1e-12);
    let steady = summary(1.0, 0.99, 1.01);
    assert_eq!(
        verdict(&steady, &summary(1.05, 1.04, 1.06), false, 0.10),
        Verdict::WithinBound
    );
    assert_eq!(
        verdict(&steady, &summary(1.2, 1.19, 1.21), false, 0.10),
        Verdict::Regression
    );
    // Faster, but so noisy that "no regression" is not established.
    assert_eq!(
        verdict(&steady, &summary(0.9, 0.8, 1.0), false, 0.10),
        Verdict::Unresolved
    );
    // Higher is better: a drop is the regression.
    assert_eq!(
        verdict(&steady, &summary(0.8, 0.79, 0.81), true, 0.10),
        Verdict::Regression
    );
}

const CATALOGUE: &str = r#"{
  "workloads": [{"name": "w", "why": "test"}],
  "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
  "per_layer": [{"name": "layer.ops", "unit": "count", "better": "higher"}]
}"#;

fn result(
    seed: u64,
    threads: u64,
    sizes: &str,
    wall: f64,
    failed: u64,
    comparable: bool,
) -> String {
    format!(
        r#"{{"schema": 1, "comparable": {comparable}, "seed": {seed}, "seconds": 1, "quick": false,
        "topology": {{"nodes": 2, "threads_per_node": {threads}, "cores": 2}},
        "workloads": [{{"name": "w", "sizes": "{sizes}", "jobs_attempted": 10, "jobs_failed": {failed},
          "metrics": {{"wall_s": {{"unit": "s", "value": {wall}, "median": {wall}, "q1": {wall}, "q3": {wall},
                                 "min": {wall}, "max": {wall}, "n": 5}}}}}}],
        "dominance": []}}"#
    )
}

#[test]
fn compare_gates_regressions_failures_and_unlike_files() {
    let catalogue = Catalogue::parse(CATALOGUE).unwrap();
    assert_eq!(catalogue.workloads, ["w"]);
    assert_eq!(catalogue.find("layer.ops").unwrap().bound, None);
    let load = |s: String| parse_result(&s).unwrap();
    let parent = load(result(1, 1, "n=1", 1.0, 0, true));

    let (text, pass) = compare(
        &parent,
        &load(result(1, 1, "n=1", 1.05, 0, true)),
        &catalogue,
    )
    .unwrap();
    assert!(pass, "{text}");
    assert!(text.contains("within bound"), "{text}");

    let (text, pass) = compare(
        &parent,
        &load(result(1, 1, "n=1", 1.2, 0, true)),
        &catalogue,
    )
    .unwrap();
    assert!(!pass);
    assert!(text.contains("REGRESSION"), "{text}");

    let (text, pass) = compare(
        &parent,
        &load(result(1, 1, "n=1", 0.9, 1, true)),
        &catalogue,
    )
    .unwrap();
    assert!(!pass);
    assert!(text.contains("MORE FAILURES"), "{text}");

    for unlike in [
        result(2, 1, "n=1", 1.0, 0, true),
        result(1, 2, "n=1", 1.0, 0, true),
        result(1, 1, "n=2", 1.0, 0, true),
        result(1, 1, "n=1", 1.0, 0, false),
    ] {
        assert!(compare(&parent, &load(unlike), &catalogue).is_err());
    }
}

#[test]
fn pinned_references_parse_hex_checksums() {
    let pinned = parse_pinned(
        r#"[{"workload": "w", "seed": 7, "quick": true, "checksum": "0xffffffffffffffff", "records": 3}]"#,
    )
    .unwrap();
    assert_eq!(pinned[0].checksum, u64::MAX);
    assert!(pinned[0].quick);
    assert!(parse_pinned(
        r#"[{"workload": "w", "seed": 7, "quick": true, "checksum": 12, "records": 3}]"#
    )
    .is_err());
}

#[test]
fn benchmark_json_names_the_workloads_the_harness_has() {
    let catalogue = Catalogue::load("../BENCHMARK.json".as_ref()).unwrap();
    let have: Vec<_> = workloads::all(false).iter().map(|w| w.name).collect();
    assert_eq!(catalogue.workloads, have);
    let valid = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for m in catalogue.end_to_end.iter().chain(&catalogue.per_layer) {
        assert!(valid(&m.name), "{}", m.name);
    }
    assert!(catalogue.end_to_end.iter().all(|m| m.bound.is_some()));
}

#[test]
fn outputs_do_not_depend_on_the_topology() {
    // The pinned references must hold on a host with any core count.
    for w in workloads::all(true) {
        let outputs: Vec<_> = [1, 3]
            .into_iter()
            .map(|threads| {
                let env = Env::new(w.params(threads, 2015));
                w.bench.seed(&env).unwrap();
                let out = w.bench.run_hamr(&env).unwrap();
                (out.checksum, out.records)
            })
            .collect();
        assert_eq!(outputs[0], outputs[1], "{}", w.name);
    }
}
