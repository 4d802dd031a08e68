//! The operator binary, spawned as a process: argument errors exit 2,
//! `explain` reads a journal this test wrote (a listed key explains,
//! an unsampled key exits 1), a reader that has closed stdout ends
//! a listing quietly instead of with a `println!` panic, `doctor`
//! tells a clean flight record from a tripped one from a non-record,
//! and `trace` leaves two loadable timelines, and nothing else, with
//! the skewed run's stalls, and prints one causal report per run.

use hamr_core::RuntimeConfig;
use hamr_trace::json::{self, Json};
use hamr_trace::{FlightRecord, Observe, StatsMode, WatchdogClass, WatchdogTrip};
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{Benchmark, Env, SimParams};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn hamr_cmd(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hamr"));
    cmd.args(args);
    cmd
}

fn hamr(args: &[&str]) -> Output {
    hamr_cmd(args).output().expect("spawn hamr")
}

/// Run `hamr <args>` with a stdout whose read end is already closed:
/// its first write fails with `EPIPE`, as under `| head` once `head`
/// has left.
fn hamr_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    hamr_cmd(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn hamr")
}

/// A fresh directory under the system temp dir, unique to this process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamr_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A small WordCount journaled with 1-in-1 lineage sampling.
fn write_wordcount_journal(dir: &Path) {
    let runtime = RuntimeConfig {
        stats: StatsMode::Full { sample_one_in: 1 },
        ..Default::default()
    };
    let env = Env::with_hamr_runtime(SimParams::test(2, 1), runtime);
    env.hamr.enable_journal(dir).expect("enable journal");
    let bench = WordCount {
        lines: 200,
        words_per_line: 8,
        vocab: 50,
    };
    bench.seed(&env).expect("seed");
    bench.run_hamr(&env).expect("hamr run");
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["top", "--no-such-flag"],
        &["top", "--ticks"],
        &["timeline"],
        &["explain", "only-a-dir"],
        &["trace", "--no-such-flag"],
        &["trace", "--causal"],
        &["doctor"],
    ] {
        let out = hamr(args);
        assert_eq!(out.status.code(), Some(2), "hamr {args:?}");
        assert!(out.stdout.is_empty(), "hamr {args:?} wrote to stdout");
    }
}

#[test]
fn explain_and_timeline_read_a_journal() {
    let dir = scratch_dir("journal");
    write_wordcount_journal(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");

    // A key `--list` names explains, down to its reducer.
    let list = hamr(&["explain", dir_arg, "wordcount", "--list"]);
    assert_eq!(list.status.code(), Some(0));
    let listing = String::from_utf8(list.stdout).expect("utf-8 listing");
    let key = listing
        .lines()
        .nth(1)
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or_else(|| panic!("no sampled key listed: {listing}"));
    let explained = hamr(&["explain", dir_arg, "wordcount", key]);
    assert_eq!(explained.status.code(), Some(0), "explain {key}");
    assert!(
        String::from_utf8_lossy(&explained.stdout).contains("ingested by reduce"),
        "explain {key} never reached a reducer"
    );

    // A key nobody sampled, and a job nobody ran, are both exit 1.
    for (job, key) in [("wordcount", "no-such-key-xyzzy"), ("no-such-job", "--any")] {
        let out = hamr(&["explain", dir_arg, job, key]);
        assert_eq!(out.status.code(), Some(1), "explain {job} {key}");
    }

    // A closed stdout ends each listing quietly.
    for args in [
        &["explain", dir_arg, "wordcount", "--list"][..],
        &["timeline", dir_arg],
    ] {
        let out = hamr_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "hamr {args:?}: {stderr}");
        assert!(stderr.is_empty(), "hamr {args:?} complained: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_exit_code_is_the_diagnosis() {
    let dir = scratch_dir("doctor");
    let record = |trip| FlightRecord::capture("wc", trip, None, None, 16, &Observe::default());
    let tripped = record(Some(WatchdogTrip {
        class: WatchdogClass::Hang,
        epoch: 12,
        detail: "no progress".into(),
    }));
    std::fs::write(dir.join("clean.json"), record(None).to_json().to_string()).expect("write");
    std::fs::write(dir.join("tripped.json"), tripped.to_json().to_string()).expect("write");
    std::fs::write(dir.join("garbage.json"), "{\"job\":").expect("write");
    for (file, code) in [
        ("clean.json", 0),
        ("tripped.json", 1),
        ("garbage.json", 2),
        ("missing.json", 2),
    ] {
        let path = dir.join(file);
        let out = hamr(&["doctor", path.to_str().expect("utf-8 temp dir")]);
        assert_eq!(out.status.code(), Some(code), "hamr doctor {file}");
        // A bad input never prints what could pass for a diagnosis.
        assert_eq!(out.stdout.is_empty(), code == 2, "hamr doctor {file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_leaves_loadable_timelines_with_the_skewed_runs_stalls() {
    let dir = scratch_dir("trace");
    let out = hamr_cmd(&["trace"])
        .current_dir(&dir)
        .output()
        .expect("spawn hamr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "hamr trace: {stderr}");
    let slices = |file: &str, name: &str| {
        let text = std::fs::read_to_string(dir.join(file)).expect(file);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect(file);
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .count()
    };
    assert!(slices("trace_hamr.json", "flow-control stall") >= 1);
    assert!(slices("trace_mapred.json", "mr-map") >= 1);
    // The two timelines are all it writes, and they hold trace events
    // only: no counter track.
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("read trace dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, ["trace_hamr.json", "trace_mapred.json"]);
    let hamr_json = std::fs::read_to_string(dir.join("trace_hamr.json")).expect("trace_hamr");
    assert!(!hamr_json.contains("\"ph\":\"C\""), "a counter event");
    // Stdout is one causal report per run and nothing else: the
    // balanced run has no stall to report, and the skewed run's most
    // frequent stall is its hot shuffle edge, map → reduce.
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let sections: Vec<&str> = stdout.split("== causal attribution: ").collect();
    assert_eq!(sections[0], "", "{stdout}");
    assert_eq!(sections.len(), 4, "{stdout}");
    let section = |run: &str| {
        let found = sections[1..].iter().find(|s| s.starts_with(run));
        found.unwrap_or_else(|| panic!("no {run} section:\n{stdout}"))
    };
    assert!(section("mapred_both ==").contains("top stall edges:"));
    let balanced = section("hamr_wordcount ==");
    assert!(
        balanced.contains("no flow-control stalls recorded"),
        "{balanced}"
    );
    let skewed = section("hamr_histratings_skewed ==");
    let mut ranked = skewed.lines().skip_while(|l| !l.starts_with("stall edge"));
    let columns: Vec<&str> = ranked
        .next()
        .expect("a header")
        .split_whitespace()
        .collect();
    // No summed-wait column: concurrent waits summed exceed the wall.
    assert_eq!(columns, ["stall", "edge", "stalls", "avg/bin"], "{skewed}");
    let first_edge = ranked.next().expect("a ranked stall edge");
    assert!(first_edge.starts_with("f1 edge1 "), "{skewed}");
    let _ = std::fs::remove_dir_all(&dir);
}
