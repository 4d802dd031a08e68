//! Offline run reconstruction from a journal directory.
//!
//! [`Timeline::load`] walks each journal's records in order and folds
//! them into per-job spans: which engine ran the job (its `JobStart`),
//! whether (and how) it ended, and its [`JobRow`] as its `JobEnd`
//! carries it — shuffle records, bytes and keys, resident cache hits,
//! stall time, p99 task latency, stuck custody edges — plus the
//! watchdog incidents and per-edge statistics it left behind. A
//! `JobStart` with no matching `JobEnd` is a run killed mid-flight —
//! exactly the case the journal exists for.
//!
//! Every column is printed as the job's `JobEnd` wrote it; nothing is
//! subtracted from anything. The p99 is the upper bound of the log2
//! bucket holding it, so its column says `p99 bound`. A column the engine has no notion of, or
//! that an older writer did not carry, shows `-`.
//!
//! `hamr timeline <dir>` renders this; `hamr timeline --diff a b`
//! compares two reconstructions job by job, pairing by engine and name.

use super::{read_journal_tree, JobRow, JournalRecord};
use crate::fmt_us;
use crate::stats::EdgeStatsSummary;
use crate::WatchdogTrip;
use std::path::Path;

/// One job's reconstructed span.
#[derive(Debug, Clone, Default)]
pub struct JobSpan {
    pub job: String,
    pub engine: String,
    pub start_us: u64,
    /// `None` when the journal ends before the job did — the process
    /// was killed mid-job.
    pub end_us: Option<u64>,
    /// The row the job's `JobEnd` carries, as written; `None` when the
    /// job never ended.
    pub row: Option<JobRow>,
    /// The watchdog incidents the job's run journaled.
    pub incidents: Vec<WatchdogTrip>,
    /// Per-edge data-plane cardinality lines from the job's
    /// `StatsSnapshot` record, rendered as
    /// `edge E: N records, ~D distinct keys, hot K%, p99 val B bytes`.
    pub edge_stats: Vec<String>,
}

impl JobSpan {
    /// Wall time: the row's elapsed, else span width.
    pub fn wall_us(&self) -> Option<u64> {
        (self.row.as_ref().map(|r| r.elapsed_us))
            .or_else(|| self.end_us.map(|e| e.saturating_sub(self.start_us)))
    }

    /// The row's verdict; `None` for a job killed mid-flight.
    pub fn ok(&self) -> Option<bool> {
        self.row.as_ref().map(|r| r.ok)
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
                JournalRecord::JobEnd { t_us, row } => {
                    // Close the open span if it matches; otherwise find
                    // the newest unclosed span with this name.
                    let job = &row.job;
                    let idx = open.filter(|&i| t.jobs[i].job == *job).or_else(|| {
                        t.jobs
                            .iter()
                            .rposition(|s| s.job == *job && s.end_us.is_none())
                    });
                    if let Some(i) = idx {
                        t.jobs[i].end_us = Some(*t_us);
                        t.jobs[i].row = Some(row.clone());
                    }
                    open = None;
                }
                JournalRecord::Incident { job, trip } => {
                    let idx = open
                        .filter(|&i| t.jobs[i].job == *job)
                        .or_else(|| t.jobs.iter().rposition(|s| s.job == *job));
                    if let Some(i) = idx {
                        t.jobs[i].incidents.push(trip.clone());
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
        if self.unknown_records > 0 {
            out.push_str(&format!(
                " — {} record(s) of a retired or unknown kind skipped",
                self.unknown_records
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<28} {:<6} {:>9} {:>11} {:>12} {:>9} {:>9} {:>9} {:>9}  status\n",
            "job",
            "engine",
            "wall ms",
            "shuffle rec",
            "shuffled B",
            "keys",
            "cache hit",
            "stall ms",
            "p99 bound"
        ));
        for span in &self.jobs {
            let ms = |us: u64| format!("{:.1}", us as f64 / 1000.0);
            let wall = span.wall_us().map_or_else(|| "?".into(), ms);
            let row = span.row.as_ref();
            let shuffled = row.map_or_else(|| "?".into(), |r| r.shuffled_bytes.to_string());
            let col =
                |v: Option<u64>, show: &dyn Fn(u64) -> String| v.map_or_else(|| "-".into(), show);
            let count = |v: u64| v.to_string();
            let status = match span.ok() {
                Some(true) => "ok",
                Some(false) => "FAILED",
                None => "KILLED MID-FLIGHT",
            };
            out.push_str(&format!(
                "{:<28} {:<6} {:>9} {:>11} {:>12} {:>9} {:>9} {:>9} {:>9}  {}\n",
                span.job,
                span.engine,
                wall,
                col(row.and_then(|r| r.shuffle_records), &count),
                shuffled,
                col(row.and_then(|r| r.distinct_keys), &count),
                col(row.and_then(|r| r.cache_hits), &count),
                col(row.and_then(|r| r.stall_us), &ms),
                col(row.and_then(|r| r.task_p99_us), &fmt_us),
                status
            ));
            for inc in &span.incidents {
                out.push_str(&format!(
                    "    incident: {} at watchdog epoch {} — {}\n",
                    inc.class.name(),
                    inc.epoch,
                    inc.detail
                ));
            }
            for e in row.iter().flat_map(|r| &r.stuck) {
                out.push_str(&format!(
                    "    stuck: edge {} -> node {} ({} bins in flight)\n",
                    e.edge, e.dst, e.bins
                ));
            }
            for line in &span.edge_stats {
                out.push_str(&format!("    keys: {line}\n"));
            }
        }
        for span in self.unfinished() {
            out.push_str(&format!(
                "final state: job {} was open when the journal ends — the last completed job is the span above it\n",
                span.job
            ));
        }
        out
    }

    /// Compare two reconstructions job by job: a job is matched to the
    /// first one of the other journal with its engine and name.
    pub fn render_diff(a: &Timeline, b: &Timeline) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "diff: {} job(s) vs {} job(s)\n",
            a.jobs.len(),
            b.jobs.len()
        ));
        out.push_str(&format!(
            "{:<28} {:<6} {:>10} {:>10} {:>7} {:>13} {:>13}  status a/b\n",
            "job", "engine", "wall a ms", "wall b ms", "ratio", "shuffled a", "shuffled b"
        ));
        let same = |x: &JobSpan, y: &JobSpan| x.engine == y.engine && x.job == y.job;
        let shuffled = |s: &JobSpan| s.row.as_ref().map_or(0, |r| r.shuffled_bytes);
        for sa in &a.jobs {
            match b.jobs.iter().find(|sb| same(sa, sb)) {
                Some(sb) => {
                    let wa = sa.wall_us().unwrap_or(0) as f64 / 1000.0;
                    let wb = sb.wall_us().unwrap_or(0) as f64 / 1000.0;
                    let ratio = if wb > 0.0 { wa / wb } else { f64::NAN };
                    out.push_str(&format!(
                        "{:<28} {:<6} {:>10.1} {:>10.1} {:>7.2} {:>13} {:>13}  {}/{}\n",
                        sa.job,
                        sa.engine,
                        wa,
                        wb,
                        ratio,
                        shuffled(sa),
                        shuffled(sb),
                        status_ch(sa),
                        status_ch(sb)
                    ));
                }
                None => out.push_str(&format!(
                    "{:<28} {:<6} only in first journal\n",
                    sa.job, sa.engine
                )),
            }
        }
        for sb in &b.jobs {
            if !a.jobs.iter().any(|sa| same(sa, sb)) {
                out.push_str(&format!(
                    "{:<28} {:<6} only in second journal\n",
                    sb.job, sb.engine
                ));
            }
        }
        out
    }
}

fn status_ch(s: &JobSpan) -> &'static str {
    match s.ok() {
        Some(true) => "ok",
        Some(false) => "FAIL",
        None => "KILLED",
    }
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
    use super::super::StuckEdge;
    use super::*;
    use crate::WatchdogClass;

    fn start_on(engine: &str, job: &str, t_us: u64) -> JournalRecord {
        JournalRecord::JobStart {
            job: job.into(),
            engine: engine.into(),
            t_us,
        }
    }

    fn start(job: &str, t_us: u64) -> JournalRecord {
        start_on("hamr", job, t_us)
    }

    fn end(job: &str, t_us: u64, shuffled_bytes: u64) -> JournalRecord {
        JournalRecord::JobEnd {
            t_us,
            row: JobRow {
                job: job.into(),
                ok: true,
                elapsed_us: t_us,
                shuffled_bytes,
                ..JobRow::default()
            },
        }
    }

    #[test]
    fn reconstructs_completed_and_killed_spans() {
        let row = JobRow {
            job: "wc".into(),
            ok: true,
            elapsed_us: 5000,
            shuffled_bytes: 1000,
            shuffle_records: Some(40),
            distinct_keys: None,
            cache_hits: Some(2),
            stall_us: Some(1500),
            task_p99_us: Some(127),
            stuck: vec![StuckEdge {
                edge: 1,
                dst: 2,
                bins: 3,
            }],
        };
        let records = vec![
            start("wc", 0),
            JournalRecord::JobEnd {
                t_us: 5000,
                row: row.clone(),
            },
            start("pr", 6000),
            JournalRecord::Incident {
                job: "pr".into(),
                trip: WatchdogTrip {
                    class: WatchdogClass::Backpressure,
                    epoch: 4,
                    detail: "deferred>0".into(),
                },
            },
        ];
        let t = Timeline::from_records(&records);
        assert_eq!(t.jobs.len(), 2);
        assert_eq!(t.jobs[0].ok(), Some(true));
        assert_eq!(t.jobs[0].row, Some(row), "printed as written");
        assert_eq!(t.jobs[1].ok(), None, "killed mid-flight");
        assert_eq!(t.jobs[1].row, None);
        assert_eq!(t.jobs[1].incidents.len(), 1);
        assert_eq!(t.unfinished().len(), 1);
        let rendered = t.render();
        let cols = |job: &str| -> Vec<String> {
            let line = rendered.lines().find(|l| l.starts_with(job)).unwrap();
            line.split_whitespace().map(str::to_string).collect()
        };
        assert_eq!(
            cols("wc"),
            ["wc", "hamr", "5.0", "40", "1000", "-", "2", "1.5", "127us", "ok"]
        );
        assert_eq!(
            cols("pr")[..9],
            ["pr", "hamr", "?", "-", "?", "-", "-", "-", "-"]
        );
        assert!(rendered.contains("    stuck: edge 1 -> node 2 (3 bins in flight)"));
        assert!(rendered.contains("KILLED MID-FLIGHT"));
        assert!(rendered.contains("backpressure"));
    }

    #[test]
    fn diff_pairs_jobs_by_name() {
        let a = Timeline::from_records(&[start("wc", 0), end("wc", 1000, 10)]);
        let b =
            Timeline::from_records(&[start("wc", 0), end("wc", 2000, 20), start("extra", 3000)]);
        let diff = Timeline::render_diff(&a, &b);
        assert!(diff.contains("wc"));
        assert!(diff.contains("0.50"), "wall ratio 1000/2000: {diff}");
        assert!(diff.contains("only in second journal"));
    }

    /// Both engines name WordCount's job `wordcount`: the diff pairs a
    /// job with the other journal's job of the same engine, whatever
    /// order the engines ran in.
    #[test]
    fn diff_pairs_jobs_by_engine_and_name() {
        let a = Timeline::from_records(&[
            start_on("hamr", "wordcount", 0),
            end("wordcount", 1000, 10),
            start_on("mapred", "wordcount", 0),
            end("wordcount", 8000, 80),
        ]);
        let b = Timeline::from_records(&[
            start_on("mapred", "wordcount", 0),
            end("wordcount", 4000, 40),
            start_on("hamr", "wordcount", 0),
            end("wordcount", 2000, 20),
        ]);
        let diff = Timeline::render_diff(&a, &b);
        let pairs: Vec<Vec<&str>> = diff
            .lines()
            .filter(|l| l.starts_with("wordcount"))
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            pairs,
            [
                [
                    "wordcount",
                    "hamr",
                    "1.0",
                    "2.0",
                    "0.50",
                    "10",
                    "20",
                    "ok/ok"
                ],
                [
                    "wordcount",
                    "mapred",
                    "8.0",
                    "4.0",
                    "2.00",
                    "80",
                    "40",
                    "ok/ok"
                ],
            ],
            "{diff}"
        );
    }
}
