//! A time-series *view* over the registry's live gauges: a thread that
//! polls [`MetricsRegistry::live_gauges`] on an interval. No engine run
//! starts one — gauges are always current in the registry — so the
//! tool that wants a series over time (`hamr trace`) owns
//! the sampler for as long as it wants samples.

use super::snapshot::render_labels;
use super::MetricsRegistry;
use crate::Tracer;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Every sampled gauge's value at `t_us`. `values[i]` belongs to the
/// i-th series *at sample time*; a gauge registered later has no value
/// in earlier samples (exporters pad with 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    pub t_us: u64,
    pub values: Vec<i64>,
}

/// The sampled gauge series, ready for export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeSeries {
    /// One `name{labels}` per series, as `/metrics` spells it.
    pub names: Vec<String>,
    /// Owning node per series, aligned with `names` (`u32::MAX` =
    /// cluster-wide; drives the Chrome counter-track pid).
    pub nodes: Vec<u32>,
    pub samples: Vec<Sample>,
}

impl TimeSeries {
    /// Wide CSV: one row per sample, one column per gauge.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let header = std::iter::once("t_us".to_string()).chain(self.names.iter().cloned());
        crate::csv::push_csv_row(&mut out, header);
        for sample in &self.samples {
            let value = |g: usize| sample.values.get(g).copied().unwrap_or(0);
            let row = std::iter::once(sample.t_us.to_string())
                .chain((0..self.names.len()).map(|g| value(g).to_string()));
            crate::csv::push_csv_row(&mut out, row);
        }
        out
    }
}

/// The polling thread. [`start`](GaugeSampler::start) it before the run
/// of interest, [`stop`](GaugeSampler::stop) it after.
pub struct GaugeSampler {
    stop: Sender<()>,
    thread: JoinHandle<TimeSeries>,
}

impl GaugeSampler {
    /// Sample `engine`'s live gauges every `interval`, stamped on
    /// `clock`'s axis so counter tracks line up with its trace events.
    pub fn start(
        registry: &MetricsRegistry,
        engine: &'static str,
        interval: Duration,
        clock: &Tracer,
    ) -> Self {
        let (stop, stopped) = channel::<()>();
        let (registry, clock) = (registry.clone(), clock.clone());
        let thread = std::thread::Builder::new()
            .name("hamr-gauge-sampler".into())
            .spawn(move || {
                let mut samples = Vec::new();
                loop {
                    // Anything but a timeout is `stop`: one last sample,
                    // so the shortest run still has a data point.
                    let last = stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout);
                    let gauges = registry.live_gauges(engine);
                    samples.push(Sample {
                        t_us: clock.now_us(),
                        values: gauges.iter().map(|g| g.value).collect(),
                    });
                    if !last {
                        continue;
                    }
                    // Series only ever append, so the last poll names
                    // every column of every sample taken.
                    return TimeSeries {
                        names: gauges
                            .iter()
                            .map(|g| format!("{}{}", g.name, render_labels(&g.labels, None)))
                            .collect(),
                        nodes: gauges
                            .iter()
                            .map(|g| g.labels.node.unwrap_or(u32::MAX))
                            .collect(),
                        samples,
                    };
                }
            })
            .expect("spawn gauge sampler thread");
        GaugeSampler { stop, thread }
    }

    /// Take one last sample, join the thread and return the series.
    pub fn stop(self) -> TimeSeries {
        drop(self.stop);
        self.thread.join().expect("gauge sampler thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::super::Labels;
    use super::*;

    #[test]
    fn sampler_polls_live_gauges_until_stopped() {
        let registry = MetricsRegistry::new();
        let hamr = || Labels::new().engine("hamr");
        let depth = registry.gauge("queue_depth", hamr().node(2).flowlet(1));
        registry.gauge("mr_active_tasks", Labels::new().engine("mapred").node(0));
        depth.set(4);
        // An hour-long interval: only the final sample.
        let interval = Duration::from_secs(3600);
        let sampler = GaugeSampler::start(&registry, "hamr", interval, &Tracer::disabled());
        registry.gauge("net_inflight_bytes", hamr()).set(9);
        let series = sampler.stop();
        assert_eq!(
            series.names,
            [
                "queue_depth{engine=\"hamr\",node=\"2\",flowlet=\"1\"}",
                "net_inflight_bytes{engine=\"hamr\"}"
            ]
        );
        assert_eq!(series.nodes, [2, u32::MAX]);
        let last = series.samples.last().expect("a final sample");
        assert_eq!(last.values, [4, 9], "taken after the stop");
    }

    #[test]
    fn csv_pads_late_registrations_with_zero() {
        let series = TimeSeries {
            names: vec!["a{node=\"0\"}".into(), "b".into()],
            nodes: vec![0, u32::MAX],
            samples: vec![
                Sample {
                    t_us: 5,
                    values: vec![1],
                },
                Sample {
                    t_us: 6,
                    values: vec![1, 9],
                },
            ],
        };
        let csv = series.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_us,\"a{node=\"\"0\"\"}\",b");
        assert_eq!(lines[1], "5,1,0", "early sample padded for the late gauge");
        assert_eq!(lines[2], "6,1,9");
        assert_eq!(TimeSeries::default().to_csv(), "t_us\n");
    }
}
