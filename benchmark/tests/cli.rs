//! The binary, end to end, on the `--quick` shape.

use hamr_benchmark::catalogue::Catalogue;
use hamr_trace::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the binary from the package directory, as `cargo test` does.
fn benchmark(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hamr-benchmark"))
        .args(args)
        .args(["--benchmark-json", "../BENCHMARK.json"])
        .arg("--out")
        .arg(out.join("result.json"))
        .output()
        .unwrap()
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).unwrap()
}

#[test]
fn every_workload_and_metric_is_reported_with_a_finite_value() {
    let dir = out_dir("all");
    let output = benchmark(&["all", "--quick", "--pinned", "pinned.json"], &dir);
    let text = stdout(&output);
    assert!(
        output.status.success(),
        "{text}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(text.contains("QUICK: not comparable"));

    let catalogue = Catalogue::load("../BENCHMARK.json".as_ref()).unwrap();
    for w in &catalogue.workloads {
        for m in catalogue.end_to_end.iter().chain(&catalogue.per_layer) {
            let prefix = format!("{w} {} ", m.name);
            let line = text
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no line for {w} {}", m.name));
            let mut fields = line[prefix.len()..].split(' ');
            let value: f64 = fields.next().unwrap().parse().unwrap();
            assert!(value.is_finite(), "{line}");
            assert_eq!(fields.next(), Some(m.unit.as_str()), "{line}");
        }
        assert!(text.contains(&format!("{w} jobs_failed 0 count")));
        assert!(text.contains(&format!("{w} checksum 0x")));
    }
    // The result file says the same, and says it cannot be compared.
    let result = json::parse(&std::fs::read_to_string(dir.join("result.json")).unwrap()).unwrap();
    assert_eq!(result.get("comparable"), Some(&Json::Bool(false)));
    assert_eq!(
        result.get("workloads").unwrap().as_arr().unwrap().len(),
        catalogue.workloads.len()
    );

    // One span file per workload: children inside parents, self >= 0.
    for w in &catalogue.workloads {
        let trace = std::fs::read_to_string(dir.join(format!("trace_{w}.json"))).unwrap();
        let spans = json::parse(&trace).unwrap();
        let spans = spans.as_arr().unwrap();
        assert!(spans.len() > 20, "{w}: {} spans", spans.len());
        let field = |s: &Json, k: &str| s.get(k).unwrap().as_u64().unwrap();
        for s in spans {
            assert!(field(s, "end_ns") >= field(s, "start_ns"));
            assert!(field(s, "self_ns") <= field(s, "end_ns") - field(s, "start_ns"));
            if let Some(p) = s.get("parent").and_then(Json::as_u64) {
                let p = &spans[p as usize];
                assert!(field(p, "start_ns") <= field(s, "start_ns"));
                assert!(field(p, "end_ns") >= field(s, "end_ns"));
                assert_eq!(field(p, "trace"), field(s, "trace"));
            }
        }
    }
}

#[test]
fn a_wrong_pinned_checksum_fails_the_run() {
    let dir = out_dir("wrong-pin");
    let pinned = dir.join("pinned.json");
    std::fs::write(
        &pinned,
        r#"[{"workload": "histratings_io", "seed": 2015, "quick": true,
             "checksum": "0x0000000000000001", "records": 5}]"#,
    )
    .unwrap();
    let output = benchmark(
        &[
            "run",
            "--quick",
            "--workload",
            "histratings_io",
            "--pinned",
            pinned.to_str().unwrap(),
        ],
        &dir,
    );
    assert!(!output.status.success());
    let text = stdout(&output);
    let failed: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("histratings_io jobs_failed "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("a jobs_failed line");
    assert!(failed > 0, "{text}");
}

#[test]
fn the_driver_protocol_ends_with_one_json_object() {
    let dir = out_dir("driver");
    let catalogue = Catalogue::load("../BENCHMARK.json".as_ref()).unwrap();
    for (trace, defs) in [("0", &catalogue.end_to_end), ("1", &catalogue.per_layer)] {
        // Seed 7 has no pinned reference: the engines check each other.
        let output = benchmark(
            &[
                "--workload",
                "pagerank_chain",
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
                "--pinned",
                "pinned.json",
            ],
            &dir,
        );
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let text = stdout(&output);
        let last = json::parse(text.lines().last().unwrap()).unwrap();
        let Json::Obj(keys) = &last else {
            panic!("not an object")
        };
        assert_eq!(
            keys.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("failed").unwrap().as_u64(), Some(0));
        assert!(last.get("attempted").unwrap().as_u64().unwrap() >= 1);
        let Some(Json::Obj(metrics)) = last.get("metrics") else {
            panic!("no metrics")
        };
        let want: Vec<_> = defs.iter().map(|d| d.name.as_str()).collect();
        let mut got: Vec<_> = metrics.keys().map(String::as_str).collect();
        let mut sorted = want.clone();
        sorted.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, sorted);
        for d in defs.iter() {
            let m = &metrics[&d.name];
            assert!(m.get("value").unwrap().as_f64().unwrap().is_finite());
            assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit.as_str()));
        }
    }
}

#[test]
fn compare_accepts_a_file_against_itself_and_refuses_quick_results() {
    let dir = out_dir("compare");
    let output = benchmark(
        &[
            "run",
            "--quick",
            "--workload",
            "wordcount_cpu",
            "--pinned",
            "pinned.json",
        ],
        &dir,
    );
    assert!(output.status.success());
    let quick = dir.join("result.json");
    let refuse = Command::new(env!("CARGO_BIN_EXE_hamr-benchmark"))
        .arg("compare")
        .args([&quick, &quick])
        .args(["--benchmark-json", "../BENCHMARK.json"])
        .output()
        .unwrap();
    assert_eq!(refuse.status.code(), Some(2));

    // The same numbers marked comparable pass against themselves.
    let full = dir.join("full.json");
    let text = std::fs::read_to_string(&quick).unwrap();
    std::fs::write(
        &full,
        text.replace("\"comparable\": false", "\"comparable\": true"),
    )
    .unwrap();
    let same = Command::new(env!("CARGO_BIN_EXE_hamr-benchmark"))
        .arg("compare")
        .args([&full, &full])
        .args(["--benchmark-json", "../BENCHMARK.json"])
        .output()
        .unwrap();
    let text = stdout(&same);
    assert!(same.status.success(), "{text}");
    assert!(text.ends_with("PASS\n"), "{text}");
}
