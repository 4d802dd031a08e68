use hamr_benchmark::catalogue::{load_pinned, Catalogue};
use hamr_benchmark::compare::{compare, load_result};
use hamr_benchmark::harness::{self, Options, Topology, WorkloadResult};
use hamr_benchmark::report::{driver_line, result_json, table, Report};
use hamr_benchmark::workloads;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: hamr-benchmark run|layers|all [--workload W] [--seed N] [--seconds S] [--quick]
                      [--out FILE] [--pinned FILE] [--benchmark-json FILE]
       hamr-benchmark --workload W --seed N --seconds S --trace 0|1
       hamr-benchmark compare A.json B.json [--benchmark-json FILE]

run      end-to-end metrics, no span recorded
layers   the traced run: per-layer metrics, benchmark/out/trace_<workload>.json
all      both
--trace  the driver's protocol: one workload, one mode, and the result as one
         JSON object on the last line of standard output";

struct Args {
    command: Option<String>,
    files: Vec<PathBuf>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    out: PathBuf,
    pinned: PathBuf,
    benchmark_json: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: 2015,
        seconds: 60.0,
        trace: None,
        quick: false,
        out: "benchmark/out/result.json".into(),
        pinned: "benchmark/pinned.json".into(),
        benchmark_json: "BENCHMARK.json".into(),
    };
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            "--quick" => args.quick = true,
            "--out" => args.out = value("a file")?.into(),
            "--pinned" => args.pinned = value("a file")?.into(),
            "--benchmark-json" => args.benchmark_json = value("a file")?.into(),
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            _ if args.command.is_none() => args.command = Some(arg),
            _ => args.files.push(arg.into()),
        }
    }
    Ok(args)
}

fn run_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.files.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let catalogue = Catalogue::load(&args.benchmark_json)?;
    let (text, pass) = compare(&load_result(a)?, &load_result(b)?, &catalogue)?;
    print!("{text}");
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

fn run_benchmark(args: &Args) -> Result<bool, String> {
    let (end_to_end, per_layer) = match (args.command.as_deref(), args.trace) {
        (None, Some(traced)) => (!traced, traced),
        (Some("run"), None) => (true, false),
        (Some("layers"), None) => (false, true),
        (Some("all"), None) => (true, true),
        _ => return Err(USAGE.into()),
    };
    let catalogue = Catalogue::load(&args.benchmark_json)?;
    let pinned = load_pinned(&args.pinned)?;
    let mut chosen = workloads::all(args.quick);
    if let Some(name) = &args.workload {
        chosen.retain(|w| w.name == name);
        if chosen.is_empty() {
            return Err(format!("no workload called {name}"));
        }
    } else if args.trace.is_some() {
        return Err("--trace needs --workload".into());
    }
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        topology: Topology::detect(),
        catalogue: &catalogue,
        pinned: &pinned,
        out_dir: args.out.parent().unwrap_or(Path::new(".")),
    };

    std::fs::create_dir_all(opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;

    let mut results: Vec<WorkloadResult> = Vec::new();
    for w in &chosen {
        eprintln!("{}: {}", w.name, w.sizes);
        let mut result: Option<WorkloadResult> = None;
        if end_to_end {
            result = Some(harness::run(w, &opts));
        }
        if per_layer {
            let traced = harness::layers(w, &opts);
            match &mut result {
                Some(r) => r.merge(traced),
                None => result = Some(traced),
            }
        }
        results.extend(result);
    }
    // The claims are about full-size inputs.
    let claims = if per_layer && !args.quick {
        harness::dominance(&results)
    } else {
        Vec::new()
    };
    let report = Report {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        topology: opts.topology,
        results,
        claims,
    };
    print!("{}", table(&report, &catalogue));
    std::fs::write(&args.out, result_json(&report, &catalogue))
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;

    match args.trace {
        // The driver judges outputs and metrics; whether a workload
        // still dominates its layer is for people to read above.
        Some(traced) => {
            let result = &report.results[0];
            let defs = if traced {
                &catalogue.per_layer
            } else {
                &catalogue.end_to_end
            };
            println!("{}", driver_line(result, defs));
            Ok(result.ok())
        }
        None => Ok(report.ok()),
    }
}

fn main() -> ExitCode {
    // Before any thread exists: the runtime reads its knobs lazily.
    harness::scrub_env();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.command.as_deref() == Some("compare") {
        run_compare(&args)
    } else {
        run_benchmark(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
