//! Offline run reconstruction from a journal directory.
//!
//! [`Timeline::load`] walks each journal's records in order and folds
//! them into per-job spans: when the job started, whether (and how) it
//! ended, how many bytes it shuffled, what the resident cache served,
//! the p99 task latency for its epoch, and which watchdog incidents
//! and stuck edges it left behind. A `JobStart` with no matching
//! `JobEnd` is a run killed mid-flight — exactly the case the journal
//! exists for.
//!
//! A span's epoch columns are its own job's: the delta of its `Epoch`
//! against the previous one *in the same journal*, over the series of
//! its own engine (the `mapred` baseline publishes into the HAMR
//! cluster's registry). A directory reopened by another process starts
//! from that process's attach-time baseline epoch.
//!
//! `hamr timeline <dir>` renders this; `hamr timeline --diff a b`
//! compares two reconstructions job by job.

use super::{read_journal_tree, JournalRecord};
use crate::audit::AuditReport;
use crate::hist::quantile_of;
use crate::json;
use crate::registry::{HistSample, SampleValue, Snapshot};
use crate::stats::EdgeStatsSummary;
use std::path::Path;

/// A watchdog incident attached to the job it interrupted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentNote {
    pub class: String,
    pub epoch: u64,
    pub detail: String,
}

/// One job's reconstructed span.
#[derive(Debug, Clone, Default)]
pub struct JobSpan {
    pub job: String,
    pub engine: String,
    pub start_us: u64,
    /// `None` when the journal ends before the job did — the process
    /// was killed mid-job.
    pub end_us: Option<u64>,
    pub ok: Option<bool>,
    pub elapsed_us: Option<u64>,
    /// What the job's own `JobEnd` says it shuffled.
    pub shuffled_bytes: Option<u64>,
    /// Resident-cache hits served during this job's epoch delta.
    pub cache_hits: u64,
    /// Flow-control stall time accumulated during this job's epoch.
    pub stall_us: u64,
    /// p99 task latency over this job's epoch delta histogram.
    pub task_p99_us: Option<u64>,
    pub incidents: Vec<IncidentNote>,
    /// Stuck custody edges from the audit epoch, rendered as
    /// `edge E -> node N (K bins in flight)`.
    pub stuck_edges: Vec<String>,
    /// Per-edge data-plane cardinality lines from the job's
    /// `StatsSnapshot` record, rendered as
    /// `edge E: N records, ~D distinct keys, hot K%, p99 val B bytes`.
    pub edge_stats: Vec<String>,
}

impl JobSpan {
    /// Wall time: explicit elapsed from `JobEnd`, else span width.
    pub fn wall_us(&self) -> Option<u64> {
        self.elapsed_us
            .or_else(|| self.end_us.map(|e| e.saturating_sub(self.start_us)))
    }
}

/// The reconstruction of everything a journal directory recorded.
#[derive(Debug, Default)]
pub struct Timeline {
    pub jobs: Vec<JobSpan>,
    /// Total records decoded across all journals read.
    pub records: usize,
    pub truncated_frames: u64,
    pub unknown_records: u64,
    /// Journal directories read (an `auto` parent holds one per
    /// cluster).
    pub sources: usize,
}

/// Sum every `flowlet_task_latency_us` series in a snapshot into one
/// aggregate histogram.
fn aggregate_latency(snap: &Snapshot) -> Option<HistSample> {
    let mut agg: Option<HistSample> = None;
    for s in &snap.series {
        if s.name != "flowlet_task_latency_us" {
            continue;
        }
        if let SampleValue::Histogram(h) = &s.value {
            let agg = agg.get_or_insert_with(|| HistSample {
                count: 0,
                sum_us: 0,
                buckets: vec![0; h.buckets.len()],
            });
            agg.count += h.count;
            agg.sum_us += h.sum_us;
            if agg.buckets.len() < h.buckets.len() {
                agg.buckets.resize(h.buckets.len(), 0);
            }
            for (i, n) in h.buckets.iter().enumerate() {
                agg.buckets[i] += n;
            }
        }
    }
    agg
}

impl Timeline {
    /// Load a journal directory, or the per-cluster journals under it
    /// (see [`read_journal_tree`]), each folded on its own.
    pub fn load(dir: &Path) -> Result<Timeline, String> {
        let reads = read_journal_tree(dir)?;
        if reads.is_empty() {
            return Err(format!(
                "no journal segments under {} (or its subdirectories)",
                dir.display()
            ));
        }
        let mut t = Timeline {
            sources: reads.len(),
            ..Timeline::default()
        };
        for read in reads {
            let one = Timeline::from_records(&read.records);
            t.jobs.extend(one.jobs);
            t.records += one.records;
            t.truncated_frames += read.truncated_frames;
            t.unknown_records += read.unknown_records;
        }
        Ok(t)
    }

    /// Fold one journal's ordered record stream into spans.
    pub fn from_records(records: &[JournalRecord]) -> Timeline {
        let mut t = Timeline {
            records: records.len(),
            ..Timeline::default()
        };
        let mut open: Option<usize> = None;
        let mut prev_epoch: Option<Snapshot> = None;
        for rec in records {
            match rec {
                JournalRecord::JobStart { job, engine, t_us } => {
                    t.jobs.push(JobSpan {
                        job: job.clone(),
                        engine: engine.clone(),
                        start_us: *t_us,
                        ..JobSpan::default()
                    });
                    open = Some(t.jobs.len() - 1);
                }
                JournalRecord::JobEnd {
                    job,
                    ok,
                    t_us,
                    elapsed_us,
                    shuffled_bytes,
                } => {
                    // Close the open span if it matches; otherwise find
                    // the newest unclosed span with this name.
                    let idx = open.filter(|&i| t.jobs[i].job == *job).or_else(|| {
                        t.jobs
                            .iter()
                            .rposition(|s| s.job == *job && s.end_us.is_none())
                    });
                    if let Some(i) = idx {
                        let span = &mut t.jobs[i];
                        span.end_us = Some(*t_us);
                        span.ok = Some(*ok);
                        span.elapsed_us = Some(*elapsed_us);
                        span.shuffled_bytes = Some(*shuffled_bytes);
                    }
                    open = None;
                }
                JournalRecord::Epoch(snap) => {
                    // An epoch labeled with the open job is that job's
                    // end; any other (the attach-time baseline) is only
                    // what the next one is measured against.
                    if let Some(i) = open.filter(|&i| t.jobs[i].job == snap.label) {
                        let span = &mut t.jobs[i];
                        let mut delta = match &prev_epoch {
                            Some(prev) => snap.delta(prev),
                            None => snap.clone(),
                        };
                        let engine = Some(span.engine.as_str());
                        delta
                            .series
                            .retain(|s| s.labels.engine.as_deref() == engine);
                        span.cache_hits = delta.counter_total("hamr_cache_hits_total");
                        span.stall_us = delta.counter_total("flowlet_stall_us_total");
                        if let Some(h) = aggregate_latency(&delta) {
                            if h.count > 0 {
                                span.task_p99_us = Some(quantile_of(&h.buckets, h.count, 0.99));
                            }
                        }
                    }
                    prev_epoch = Some(snap.clone());
                }
                JournalRecord::AuditEpoch { job, report_json } => {
                    let stuck = parse_stuck_edges(report_json);
                    let idx = open
                        .filter(|&i| t.jobs[i].job == *job)
                        .or_else(|| t.jobs.iter().rposition(|s| s.job == *job));
                    if let Some(i) = idx {
                        t.jobs[i].stuck_edges = stuck;
                    }
                }
                JournalRecord::Incident {
                    job,
                    class,
                    epoch,
                    detail,
                } => {
                    let note = IncidentNote {
                        class: class.clone(),
                        epoch: *epoch,
                        detail: detail.clone(),
                    };
                    let idx = open
                        .filter(|&i| t.jobs[i].job == *job)
                        .or_else(|| t.jobs.iter().rposition(|s| s.job == *job));
                    if let Some(i) = idx {
                        t.jobs[i].incidents.push(note);
                    }
                }
                JournalRecord::Stats(snap) => {
                    let idx = open
                        .filter(|&i| t.jobs[i].job == snap.job)
                        .or_else(|| t.jobs.iter().rposition(|s| s.job == snap.job));
                    if let Some(i) = idx {
                        // Each job's StatsSnapshot is built from a
                        // fresh per-job plane, so these per-edge counts
                        // are already deltas, not running totals.
                        t.jobs[i].edge_stats = snap.edges.iter().map(keys_line).collect();
                    }
                }
            }
        }
        t
    }

    /// Jobs that never saw a `JobEnd` — killed mid-flight.
    pub fn unfinished(&self) -> Vec<&JobSpan> {
        self.jobs.iter().filter(|s| s.end_us.is_none()).collect()
    }

    /// Render the reconstruction as an operator-facing report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "journal: {} job(s), {} record(s), {} source(s)",
            self.jobs.len(),
            self.records,
            self.sources
        ));
        if self.truncated_frames > 0 {
            out.push_str(&format!(
                " — {} truncated frame(s) recovered past",
                self.truncated_frames
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<28} {:>9} {:>12} {:>10} {:>10} {:>9}  status\n",
            "job", "wall ms", "shuffled B", "cache hit", "stall ms", "p99 us"
        ));
        for span in &self.jobs {
            let wall = span
                .wall_us()
                .map(|us| format!("{:.1}", us as f64 / 1000.0))
                .unwrap_or_else(|| "?".into());
            let shuffled = span
                .shuffled_bytes
                .map(|b| b.to_string())
                .unwrap_or_else(|| "?".into());
            let p99 = span
                .task_p99_us
                .map(|us| us.to_string())
                .unwrap_or_else(|| "-".into());
            let status = match span.ok {
                Some(true) => "ok".to_string(),
                Some(false) => "FAILED".to_string(),
                None => "KILLED MID-FLIGHT".to_string(),
            };
            out.push_str(&format!(
                "{:<28} {:>9} {:>12} {:>10} {:>10.1} {:>9}  {}\n",
                span.job,
                wall,
                shuffled,
                span.cache_hits,
                span.stall_us as f64 / 1000.0,
                p99,
                status
            ));
            for inc in &span.incidents {
                out.push_str(&format!(
                    "    incident: {} at watchdog epoch {} — {}\n",
                    inc.class, inc.epoch, inc.detail
                ));
            }
            for edge in &span.stuck_edges {
                out.push_str(&format!("    stuck: {edge}\n"));
            }
            for line in &span.edge_stats {
                out.push_str(&format!("    keys: {line}\n"));
            }
        }
        for span in self.unfinished() {
            out.push_str(&format!(
                "final state: job {} was open when the journal ends — last completed epoch is the span above it\n",
                span.job
            ));
        }
        out
    }

    /// Compare two reconstructions job by job (matched by name, first
    /// occurrence).
    pub fn render_diff(a: &Timeline, b: &Timeline) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "diff: {} job(s) vs {} job(s)\n",
            a.jobs.len(),
            b.jobs.len()
        ));
        out.push_str(&format!(
            "{:<28} {:>10} {:>10} {:>7} {:>13} {:>13}  status a/b\n",
            "job", "wall a ms", "wall b ms", "ratio", "shuffled a", "shuffled b"
        ));
        for sa in &a.jobs {
            let sb = b.jobs.iter().find(|s| s.job == sa.job);
            match sb {
                Some(sb) => {
                    let wa = sa.wall_us().unwrap_or(0) as f64 / 1000.0;
                    let wb = sb.wall_us().unwrap_or(0) as f64 / 1000.0;
                    let ratio = if wb > 0.0 { wa / wb } else { f64::NAN };
                    out.push_str(&format!(
                        "{:<28} {:>10.1} {:>10.1} {:>7.2} {:>13} {:>13}  {}/{}\n",
                        sa.job,
                        wa,
                        wb,
                        ratio,
                        sa.shuffled_bytes.unwrap_or(0),
                        sb.shuffled_bytes.unwrap_or(0),
                        status_ch(sa),
                        status_ch(sb)
                    ));
                }
                None => out.push_str(&format!("{:<28} only in first journal\n", sa.job)),
            }
        }
        for sb in &b.jobs {
            if !a.jobs.iter().any(|s| s.job == sb.job) {
                out.push_str(&format!("{:<28} only in second journal\n", sb.job));
            }
        }
        out
    }
}

fn status_ch(s: &JobSpan) -> &'static str {
    match s.ok {
        Some(true) => "ok",
        Some(false) => "FAIL",
        None => "KILLED",
    }
}

/// Parse an audit-epoch JSON payload back into stuck-edge lines.
fn parse_stuck_edges(report_json: &str) -> Vec<String> {
    let Ok(v) = json::parse(report_json) else {
        return Vec::new();
    };
    let Ok(report) = AuditReport::from_json(&v) else {
        return Vec::new();
    };
    report
        .stuck_rows()
        .into_iter()
        .map(|(row, gap)| {
            format!(
                "edge {} -> node {} ({} bins in flight)",
                row.edge, row.dst, gap
            )
        })
        .collect()
}

/// A job span's `keys:` line for one shuffle edge.
fn keys_line(e: &EdgeStatsSummary) -> String {
    format!(
        "edge {}: {} records, ~{} distinct keys, hot {:.0}%, p99 val {}B",
        e.edge,
        e.records,
        e.distinct,
        e.hot_share * 100.0,
        e.p99
    )
}

#[cfg(test)]
mod tests {
    use super::super::JournalRecord;
    use super::*;
    use crate::registry::{Labels, SeriesSample};

    /// One engine's cumulative series as a cluster registry holds them:
    /// shuffled bytes, cache hits, and `lat_n` task latencies in bucket
    /// `lat_bucket`.
    fn series(
        engine: &str,
        shuffled: u64,
        hits: u64,
        lat_bucket: usize,
        lat_n: u64,
    ) -> Vec<SeriesSample> {
        let mut buckets = vec![0u64; 64];
        buckets[lat_bucket] = lat_n;
        let counter = |name: &str, v| SeriesSample {
            name: name.into(),
            labels: Labels::new().engine(engine),
            value: SampleValue::Counter(v),
        };
        vec![
            counter("shuffled_bytes_total", shuffled),
            counter("hamr_cache_hits_total", hits),
            SeriesSample {
                name: "flowlet_task_latency_us".into(),
                labels: Labels::new().engine(engine).flowlet(0),
                value: SampleValue::Histogram(HistSample {
                    count: lat_n,
                    sum_us: lat_n * 100,
                    buckets,
                }),
            },
        ]
    }

    fn epoch(label: &str, series: Vec<SeriesSample>) -> JournalRecord {
        JournalRecord::Epoch(Snapshot {
            label: label.into(),
            series,
        })
    }

    fn start(job: &str, t_us: u64) -> JournalRecord {
        JournalRecord::JobStart {
            job: job.into(),
            engine: "hamr".into(),
            t_us,
        }
    }

    fn end(job: &str, t_us: u64, shuffled_bytes: u64) -> JournalRecord {
        JournalRecord::JobEnd {
            job: job.into(),
            ok: true,
            t_us,
            elapsed_us: 100,
            shuffled_bytes,
        }
    }

    #[test]
    fn reconstructs_completed_and_killed_spans() {
        let records = vec![
            start("wc", 0),
            epoch("wc", series("hamr", 1000, 0, 7, 10)),
            end("wc", 5000, 1000),
            start("pr", 6000),
            JournalRecord::Incident {
                job: "pr".into(),
                class: "backpressure".into(),
                epoch: 4,
                detail: "deferred>0".into(),
            },
        ];
        let t = Timeline::from_records(&records);
        assert_eq!(t.jobs.len(), 2);
        assert_eq!(t.jobs[0].ok, Some(true));
        assert_eq!(t.jobs[0].shuffled_bytes, Some(1000));
        assert_eq!(t.jobs[0].task_p99_us, Some(127), "p99 = upper of bucket 7");
        assert_eq!(t.jobs[1].ok, None, "killed mid-flight");
        assert_eq!(t.jobs[1].incidents.len(), 1);
        assert_eq!(t.unfinished().len(), 1);
        let rendered = t.render();
        assert!(rendered.contains("wc"));
        assert!(rendered.contains("KILLED MID-FLIGHT"));
        assert!(rendered.contains("backpressure"));
    }

    #[test]
    fn epoch_deltas_are_per_job_not_cumulative() {
        let records = vec![
            start("a", 0),
            epoch("a", series("hamr", 1000, 3, 5, 4)),
            end("a", 100, 1000),
            start("b", 200),
            // Cumulative: job b hit the cache twice and ran four tasks.
            epoch("b", series("hamr", 1500, 5, 9, 4)),
            end("b", 300, 500),
        ];
        let t = Timeline::from_records(&records);
        assert_eq!((t.jobs[0].cache_hits, t.jobs[0].task_p99_us), (3, Some(31)));
        assert_eq!(
            (t.jobs[1].cache_hits, t.jobs[1].shuffled_bytes),
            (2, Some(500))
        );
    }

    /// The `mapred` baseline publishes into the HAMR cluster's
    /// registry, so a HAMR job's epoch also carries every earlier
    /// `mapred` job's series: they are not the HAMR job's.
    #[test]
    fn a_mapred_job_ahead_does_not_count_toward_the_hamr_job() {
        let mut both = series("mapred", 5000, 0, 12, 10);
        both.extend(series("hamr", 700, 1, 6, 10));
        let t = Timeline::from_records(&[start("wc", 0), epoch("wc", both), end("wc", 100, 700)]);
        let wc = &t.jobs[0];
        assert_eq!(wc.shuffled_bytes, Some(700));
        assert_eq!((wc.cache_hits, wc.task_p99_us), (1, Some(63)));
    }

    /// A second process reopens the directory: its registry starts
    /// over, and its attach-time baseline (an epoch labeled with no
    /// job) is what its first job is measured against. A directory
    /// reopened before baselines were written has none; there a series
    /// that went backwards restarted and reads as its current value.
    #[test]
    fn a_reopened_directory_measures_each_process_from_its_own_start() {
        let records = vec![
            start("a", 0),
            epoch("a", series("hamr", 1000, 3, 5, 4)),
            end("a", 100, 1000),
            // Process two, attached with two earlier un-journaled hits.
            epoch("", series("hamr", 0, 2, 0, 0)),
            start("b", 10),
            epoch("b", series("hamr", 600, 3, 5, 2)),
            end("b", 90, 600),
            // Process three, from a build that wrote no baseline.
            start("c", 10),
            epoch("c", series("hamr", 200, 0, 3, 1)),
            end("c", 50, 200),
        ];
        let t = Timeline::from_records(&records);
        let cols = |i: usize| {
            let s = &t.jobs[i];
            (s.shuffled_bytes, s.cache_hits, s.task_p99_us)
        };
        assert_eq!(t.jobs.len(), 3, "the baseline opens no span");
        assert_eq!(cols(0), (Some(1000), 3, Some(31)));
        assert_eq!(cols(1), (Some(600), 1, Some(31)));
        assert_eq!(cols(2), (Some(200), 0, Some(7)));
    }

    #[test]
    fn diff_pairs_jobs_by_name() {
        let a = Timeline::from_records(&[
            JournalRecord::JobStart {
                job: "wc".into(),
                engine: "hamr".into(),
                t_us: 0,
            },
            JournalRecord::JobEnd {
                job: "wc".into(),
                ok: true,
                t_us: 1000,
                elapsed_us: 1000,
                shuffled_bytes: 10,
            },
        ]);
        let b = Timeline::from_records(&[
            JournalRecord::JobStart {
                job: "wc".into(),
                engine: "hamr".into(),
                t_us: 0,
            },
            JournalRecord::JobEnd {
                job: "wc".into(),
                ok: true,
                t_us: 2000,
                elapsed_us: 2000,
                shuffled_bytes: 20,
            },
            JournalRecord::JobStart {
                job: "extra".into(),
                engine: "hamr".into(),
                t_us: 3000,
            },
        ]);
        let diff = Timeline::render_diff(&a, &b);
        assert!(diff.contains("wc"));
        assert!(diff.contains("0.50"), "wall ratio 1000/2000: {diff}");
        assert!(diff.contains("only in second journal"));
    }
}
