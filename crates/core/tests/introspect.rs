//! Integration test: the embedded introspection endpoint stays
//! scrapeable while a job runs, the scrape is valid Prometheus text
//! carrying the engine's series, and the gauges in it are live on a
//! run under the default options.

use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, RunOptions, Supervision,
};
use hamr_trace::{http_get, parse_prometheus, PromSample};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn wordcount_job(name: &str, lines: usize) -> hamr_core::JobGraph {
    wordcount_job_probed(name, lines, || {})
}

/// WordCount whose map tasks each call `probe` first — a hook that
/// runs *inside* the job, on a worker.
fn wordcount_job_probed(
    name: &str,
    lines: usize,
    probe: impl Fn() + Send + Sync + 'static,
) -> hamr_core::JobGraph {
    let mut job = JobBuilder::new(name);
    let input: Vec<String> = (0..lines)
        .map(|i| format!("alpha{} beta{} gamma{}", i % 97, i % 13, i % 5))
        .collect();
    let loader = job.add_loader("lines", typed::vec_loader(input));
    let words = job.add_map(
        "split",
        typed::map_fn(move |_line_no: u64, line: String, out: &mut Emitter| {
            probe();
            for w in line.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }),
    );
    let counts = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, words, Exchange::Local);
    job.connect(words, counts, Exchange::Hash);
    job.capture_output(counts);
    job.build().unwrap()
}

#[test]
fn metrics_endpoint_live_during_supervised_run() {
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let addr = cluster.serve_introspection(0).expect("bind ephemeral");
    assert_eq!(cluster.introspection_addr(), Some(addr));

    // Hammer /metrics from a side thread while the job runs; every
    // response must be HTTP 200 and parse as Prometheus text.
    let stop = AtomicBool::new(false);
    let scrapes = std::thread::scope(|scope| {
        let stop = &stop;
        let poller = scope.spawn(move || {
            let mut good = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (status, body) =
                    http_get(addr, "/metrics", Duration::from_secs(2)).expect("GET /metrics");
                assert_eq!(status, 200);
                parse_prometheus(&body).expect("valid Prometheus text");
                good += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            good
        });
        for round in 0..2 {
            let job = wordcount_job(&format!("wc-live-{round}"), 20_000);
            let supervised = RunOptions {
                supervision: Some(Supervision::default()),
                ..Default::default()
            };
            cluster.run_with(job, &supervised).expect("supervised run");
        }
        stop.store(true, Ordering::Relaxed);
        poller.join().expect("poller")
    });
    assert!(scrapes >= 1, "endpoint answered while jobs ran");

    // The final scrape carries the engine's labeled series: counters,
    // gauges, and at least one histogram.
    let (status, body) = http_get(addr, "/metrics", Duration::from_secs(2)).expect("GET");
    assert_eq!(status, 200);
    let samples = parse_prometheus(&body).expect("valid Prometheus text");
    let series = |name: &str| {
        samples
            .iter()
            .filter(|s| s.name == name && s.label("engine") == Some("hamr"))
            .map(|s| s.value)
            .sum::<f64>()
    };
    assert_eq!(series("hamr_job_runs_total"), 2.0, "{body}");
    assert!(series("hamr_shuffled_bytes_total") > 0.0);
    assert!(series("hamr_net_sent_bytes_total") > 0.0);
    assert!(
        series("hamr_flowlet_task_latency_us_count") > 0.0,
        "histogram series present"
    );
    assert!(
        samples.iter().any(|s| s.name == "hamr_workers"),
        "gauge series present"
    );

    // /healthz reflects the completed runs; /doctor stays servable.
    let (status, body) = http_get(addr, "/healthz", Duration::from_secs(2)).expect("GET");
    assert_eq!(status, 200);
    assert!(body.contains("\"jobs_completed\":2"), "{body}");
    let (status, body) = http_get(addr, "/doctor", Duration::from_secs(2)).expect("GET");
    assert_eq!(status, 200);
    assert!(body.contains("wc-live-1"), "{body}");
    cluster.stop_introspection();
    assert_eq!(cluster.introspection_addr(), None);
}

/// The gauges `hamr top` and the watchdog read are registry cells
/// the engine moves on every run, not only on supervised or profiled
/// ones: a scrape taken from inside a `RunOptions::default()` job
/// carries them, and sees the worker that took it as busy.
#[test]
fn gauges_are_live_on_a_default_run() {
    let (nodes, threads) = (2, 2);
    let cluster = Cluster::new(ClusterConfig::local(nodes, threads));
    let addr = cluster.serve_introspection(0).expect("bind ephemeral");
    let scrape = move || {
        let (status, body) = http_get(addr, "/metrics", Duration::from_secs(2)).expect("GET");
        assert_eq!(status, 200);
        parse_prometheus(&body).expect("valid Prometheus text")
    };
    // The first map task to run scrapes the endpoint, mid-run.
    let mid_run: Arc<Mutex<Option<Vec<PromSample>>>> = Arc::default();
    let stash = Arc::clone(&mid_run);
    let job = wordcount_job_probed("wc-default", 2_000, move || {
        let mut stash = stash.lock().unwrap();
        if stash.is_none() {
            *stash = Some(scrape());
        }
    });
    cluster
        .run_with(job, &RunOptions::default())
        .expect("default run");
    let mid_run = mid_run.lock().unwrap().take().expect("a map task ran");

    let gauge = |samples: &[PromSample], name: &str| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.name == name && s.label("engine") == Some("hamr"))
            .map(|s| s.value)
            .collect()
    };
    // Mid-run the scraping node's own runtime has registered its
    // gauges (the other node's may still be starting up), and the
    // worker that scraped is busy.
    for family in [
        "hamr_workers_busy",
        "hamr_deferred_bins",
        "hamr_queue_depth",
    ] {
        assert!(!gauge(&mid_run, family).is_empty(), "mid-run: no {family}");
    }
    let workers = gauge(&mid_run, "hamr_workers");
    assert!(workers.contains(&(threads as f64)), "mid-run: {workers:?}");
    let busy: f64 = gauge(&mid_run, "hamr_workers_busy").iter().sum();
    assert!(busy >= 1.0, "the scraping worker is busy: {busy}");

    // Afterwards every node's series are there and nobody is busy.
    let after = scrape();
    assert_eq!(gauge(&after, "hamr_workers"), vec![threads as f64; nodes]);
    assert_eq!(gauge(&after, "hamr_workers_busy"), vec![0.0; nodes]);
    assert_eq!(gauge(&after, "hamr_deferred_bins"), vec![0.0; nodes]);
    // Three flowlets (loader, map, partial reduce) per node.
    assert_eq!(gauge(&after, "hamr_queue_depth"), vec![0.0; 3 * nodes]);
    cluster.stop_introspection();
}
