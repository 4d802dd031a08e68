//! Execution metrics: what the evaluation chapters read off a run.

use hamr_trace::{Labels, Log2Hist, MetricsRegistry};
use std::collections::BTreeMap;
use std::time::Duration;

/// Counters for one flowlet aggregated across nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowletMetrics {
    pub name: String,
    pub kind: &'static str,
    /// Flowlet tasks executed (splits, bins, fire shards).
    pub tasks: u64,
    /// Records consumed from bins.
    pub records_in: u64,
    /// Records emitted to downstream edges.
    pub records_out: u64,
    /// Bins shipped downstream.
    pub bins_out: u64,
    /// Bins whose shipment was deferred by flow control at least once.
    pub flow_control_stalls: u64,
    /// Cumulative time deferred bins sat in the flow-control queue.
    pub stall_time: Duration,
    /// Bytes spilled to local disk (reduce overflow).
    pub spilled_bytes: u64,
    /// Records folded away by in-node combiners before reaching reduce
    /// state. These are
    /// also restored into `records_out` on the producer side so output
    /// counts stay comparable with the combiner-free path.
    pub combined_records: u64,
    /// Total time workers spent inside this flowlet's tasks.
    pub busy: Duration,
    /// Distribution of per-task latencies.
    pub task_latency: Log2Hist,
}

impl FlowletMetrics {
    /// Add another node's counters for the same flowlet.
    pub(crate) fn merge(&mut self, fm: FlowletMetrics) {
        if self.name.is_empty() {
            self.name = fm.name;
            self.kind = fm.kind;
        }
        self.tasks += fm.tasks;
        self.records_in += fm.records_in;
        self.records_out += fm.records_out;
        self.bins_out += fm.bins_out;
        self.flow_control_stalls += fm.flow_control_stalls;
        self.stall_time += fm.stall_time;
        self.spilled_bytes += fm.spilled_bytes;
        self.combined_records += fm.combined_records;
        self.busy += fm.busy;
        self.task_latency.merge(&fm.task_latency);
    }
}

/// Per-node rollup.
#[derive(Debug, Clone, Default)]
pub struct NodeMetrics {
    /// Total worker busy time on this node.
    pub busy: Duration,
    /// Wall-clock from job start to this node finishing.
    pub elapsed: Duration,
    /// Bins received from the fabric.
    pub bins_in: u64,
    /// Records received from the fabric.
    pub records_in: u64,
    /// Work-stealing: steal operations that fetched at least one task
    /// (zero under the deterministic scheduler).
    pub steals: u64,
    /// Work-stealing: total tasks relocated by steals.
    pub stolen_tasks: u64,
    /// Tasks executed per worker — the occupancy distribution.
    pub tasks_per_worker: Vec<u64>,
    /// Time each worker spent parked waiting for work.
    pub park_per_worker: Vec<Duration>,
}

impl NodeMetrics {
    /// Total time this node's workers spent parked.
    pub fn park_time(&self) -> Duration {
        self.park_per_worker.iter().sum()
    }
}

/// Whole-job metrics, merged across nodes by the driver.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    pub flowlets: BTreeMap<usize, FlowletMetrics>,
    pub nodes: Vec<NodeMetrics>,
    /// Bytes that crossed node boundaries (from the fabric snapshot).
    pub shuffled_bytes: u64,
    /// Messages that crossed node boundaries.
    pub shuffled_messages: u64,
    /// Data-plane statistics snapshot (per-edge sketches + lineage
    /// samples); `None` when `HAMR_STATS=off`.
    pub stats: Option<hamr_trace::StatsSnapshot>,
}

impl JobMetrics {
    /// Sum of spilled bytes over all flowlets.
    pub fn total_spilled(&self) -> u64 {
        self.flowlets.values().map(|f| f.spilled_bytes).sum()
    }

    /// Sum of flow-control stall events.
    pub fn total_stalls(&self) -> u64 {
        self.flowlets.values().map(|f| f.flow_control_stalls).sum()
    }

    /// Sum of combiner-folded records over all flowlets.
    pub fn total_combined(&self) -> u64 {
        self.flowlets.values().map(|f| f.combined_records).sum()
    }

    /// Sum of successful steal operations over all nodes.
    pub fn total_steals(&self) -> u64 {
        self.nodes.iter().map(|n| n.steals).sum()
    }

    /// Sum of tasks relocated by steals over all nodes.
    pub fn total_stolen_tasks(&self) -> u64 {
        self.nodes.iter().map(|n| n.stolen_tasks).sum()
    }

    /// Sum of worker park time over all nodes.
    pub fn total_park_time(&self) -> Duration {
        self.nodes.iter().map(|n| n.park_time()).sum()
    }

    /// Fold this job's end-of-run metrics into the unified registry as
    /// cumulative engine-labeled series. Per-flowlet and per-node
    /// series deliberately omit the job label so iterative workloads
    /// (one job per iteration) accumulate into a bounded series set;
    /// the per-job dimension lives in `job_runs_total`, in
    /// [`JobResult::metrics`](crate::JobResult), and in the `JobEnd` a
    /// journal records at every completion.
    pub fn publish(&self, registry: &MetricsRegistry, job: &str, engine: &str) {
        let eng = || Labels::new().engine(engine);
        registry.counter("job_runs_total", eng().job(job)).inc();
        registry
            .counter("shuffled_bytes_total", eng())
            .add(self.shuffled_bytes);
        registry
            .counter("shuffled_messages_total", eng())
            .add(self.shuffled_messages);
        registry
            .counter("spilled_bytes_total", eng())
            .add(self.total_spilled());
        registry
            .counter("flow_control_stalls_total", eng())
            .add(self.total_stalls());
        registry
            .counter("steals_total", eng())
            .add(self.total_steals());
        registry
            .counter("stolen_tasks_total", eng())
            .add(self.total_stolen_tasks());
        for (&f, fm) in &self.flowlets {
            let labels = || eng().flowlet(f as u32);
            registry
                .counter("flowlet_tasks_total", labels())
                .add(fm.tasks);
            registry
                .counter("flowlet_records_in_total", labels())
                .add(fm.records_in);
            registry
                .counter("flowlet_records_out_total", labels())
                .add(fm.records_out);
            registry
                .counter("flowlet_bins_out_total", labels())
                .add(fm.bins_out);
            registry
                .counter("flowlet_stall_us_total", labels())
                .add(fm.stall_time.as_micros() as u64);
            registry
                .counter("flowlet_combined_records_total", labels())
                .add(fm.combined_records);
            registry
                .histogram("flowlet_task_latency_us", labels())
                .merge_from(&fm.task_latency);
        }
        for (n, nm) in self.nodes.iter().enumerate() {
            let labels = || eng().node(n as u32);
            registry
                .counter("node_bins_in_total", labels())
                .add(nm.bins_in);
            registry
                .counter("node_records_in_total", labels())
                .add(nm.records_in);
            registry
                .counter("node_busy_us_total", labels())
                .add(nm.busy.as_micros() as u64);
        }
    }

    /// Coefficient of variation of per-node busy time — the workload
    /// balance measure (0 = perfectly balanced).
    pub fn busy_imbalance(&self) -> f64 {
        if self.nodes.len() < 2 {
            return 0.0;
        }
        let xs: Vec<f64> = self.nodes.iter().map(|n| n.busy.as_secs_f64()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_zero_when_balanced() {
        let mut jm = JobMetrics::default();
        for _ in 0..4 {
            jm.nodes.push(NodeMetrics {
                busy: Duration::from_secs(3),
                elapsed: Duration::from_secs(4),
                ..Default::default()
            });
        }
        assert!(jm.busy_imbalance() < 1e-9);
    }

    #[test]
    fn imbalance_positive_when_skewed() {
        let mut jm = JobMetrics::default();
        jm.nodes.push(NodeMetrics {
            busy: Duration::from_secs(8),
            elapsed: Duration::from_secs(8),
            ..Default::default()
        });
        for _ in 0..3 {
            jm.nodes.push(NodeMetrics {
                busy: Duration::from_millis(100),
                elapsed: Duration::from_secs(8),
                ..Default::default()
            });
        }
        assert!(jm.busy_imbalance() > 1.0);
    }

    #[test]
    fn steal_and_park_totals_aggregate_nodes() {
        let mut jm = JobMetrics::default();
        jm.nodes.push(NodeMetrics {
            steals: 5,
            stolen_tasks: 12,
            tasks_per_worker: vec![10, 10],
            park_per_worker: vec![Duration::from_millis(3), Duration::from_millis(1)],
            ..Default::default()
        });
        jm.nodes.push(NodeMetrics {
            steals: 2,
            stolen_tasks: 4,
            tasks_per_worker: vec![8, 12],
            park_per_worker: vec![Duration::ZERO, Duration::from_millis(2)],
            ..Default::default()
        });
        assert_eq!(jm.total_steals(), 7);
        assert_eq!(jm.total_stolen_tasks(), 16);
        assert_eq!(jm.total_park_time(), Duration::from_millis(6));
    }

    #[test]
    fn publish_streams_job_totals_into_registry() {
        use hamr_trace::SampleValue;
        let registry = MetricsRegistry::new();
        let mut jm = JobMetrics {
            shuffled_bytes: 1000,
            shuffled_messages: 10,
            ..Default::default()
        };
        let mut fm = FlowletMetrics {
            name: "sum".into(),
            kind: "partial_reduce",
            tasks: 4,
            records_in: 40,
            records_out: 8,
            ..Default::default()
        };
        fm.task_latency.record(120);
        jm.flowlets.insert(1, fm);
        jm.nodes.push(NodeMetrics {
            bins_in: 6,
            records_in: 40,
            busy: Duration::from_micros(900),
            ..Default::default()
        });
        jm.publish(&registry, "wordcount", "hamr");
        // A second job accumulates into the same engine-level series.
        jm.publish(&registry, "wordcount", "hamr");
        let snap = registry.snapshot();
        let eng = Labels::new().engine("hamr");
        assert!(matches!(
            snap.get("shuffled_bytes_total", &eng),
            Some(SampleValue::Counter(2000))
        ));
        assert!(matches!(
            snap.get("job_runs_total", &eng.clone().job("wordcount")),
            Some(SampleValue::Counter(2))
        ));
        assert!(matches!(
            snap.get("flowlet_records_in_total", &eng.clone().flowlet(1)),
            Some(SampleValue::Counter(80))
        ));
        assert!(matches!(
            snap.get("node_busy_us_total", &eng.clone().node(0)),
            Some(SampleValue::Counter(1800))
        ));
        match snap.get("flowlet_task_latency_us", &eng.clone().flowlet(1)) {
            Some(SampleValue::Histogram(h)) => assert_eq!(h.count, 2),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn totals_aggregate_flowlets() {
        let mut jm = JobMetrics::default();
        jm.flowlets.insert(
            0,
            FlowletMetrics {
                spilled_bytes: 100,
                flow_control_stalls: 2,
                ..Default::default()
            },
        );
        jm.flowlets.insert(
            1,
            FlowletMetrics {
                spilled_bytes: 50,
                flow_control_stalls: 1,
                ..Default::default()
            },
        );
        assert_eq!(jm.total_spilled(), 150);
        assert_eq!(jm.total_stalls(), 3);
    }
}
