//! Post-mortem flight recorder and the `doctor` diagnosis it feeds.
//!
//! When the watchdog trips or a supervised job fails, the cluster dumps
//! a bounded black-box snapshot — the last-K trace events, the custody
//! ledger, and every live gauge — to `doctor_<job>.json`. The analysis
//! lives here (not in the `hamr` binary) so tests and other tools
//! can diagnose a record without shelling out.

use super::{AuditReport, AuditStage};
use crate::json::{self, Json};
use crate::{GaugeSample, Labels, Observe, RingSink, WatchdogClass, WatchdogTrip};

/// A trace event flattened for the black box: the structured
/// [`EventKind`] becomes a name plus numeric args, which is all the
/// doctor needs to print a tail and is stable to parse back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedEvent {
    pub t_us: u64,
    pub node: u32,
    pub worker: u32,
    pub name: String,
    pub args: Vec<(String, u64)>,
}

impl RecordedEvent {
    /// Flatten a live [`TraceEvent`](crate::TraceEvent) into the
    /// recorded form: the name and args of
    /// [`EventKind::describe`](crate::EventKind::describe). Keys are
    /// sorted so a round-trip (JSON args parse back out of an ordered
    /// map) is the identity.
    pub fn from_event(ev: &crate::TraceEvent) -> RecordedEvent {
        let (name, _, args) = ev.kind.describe();
        let mut args: Vec<(String, u64)> =
            args.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        args.sort();
        RecordedEvent {
            t_us: ev.t_us,
            node: ev.node,
            worker: ev.worker,
            name: name.to_string(),
            args,
        }
    }
}

/// The bounded post-mortem snapshot written to `doctor_<job>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    pub job: String,
    pub engine: String,
    pub trip: Option<WatchdogTrip>,
    pub error: Option<String>,
    /// Last-K events from the trace ring, oldest first.
    pub events: Vec<RecordedEvent>,
    /// Events the trace ring overflowed and lost before capture — a
    /// nonzero value means `events` has gaps, which matters when a
    /// diagnosis hinges on an event being absent.
    pub dropped_events: u64,
    pub audit: AuditReport,
    /// The engine's live gauges at dump time.
    pub gauges: Vec<GaugeSample>,
}

/// The numeric label dimensions a live gauge carries, in render order.
fn dims(labels: &Labels) -> impl Iterator<Item = (&'static str, u32)> {
    let dims = [
        ("node", labels.node),
        ("flowlet", labels.flowlet),
        ("edge", labels.edge),
    ];
    dims.into_iter().filter_map(|(dim, v)| Some((dim, v?)))
}

impl FlightRecord {
    /// Build a record from live run state: the newest `tail`
    /// events in the flight `ring` (left in place; a run without one
    /// records none), and the engine, ledger and live gauges of `obs`.
    pub fn capture(
        job: impl Into<String>,
        trip: Option<WatchdogTrip>,
        error: Option<String>,
        ring: Option<&RingSink>,
        tail: usize,
        obs: &Observe,
    ) -> Self {
        let events = ring.map(|r| r.peek()).unwrap_or_default();
        let skip = events.len().saturating_sub(tail);
        FlightRecord {
            job: job.into(),
            engine: obs.engine.to_string(),
            trip,
            error,
            events: events[skip..]
                .iter()
                .map(RecordedEvent::from_event)
                .collect(),
            dropped_events: ring.map_or(0, |r| r.dropped()),
            audit: obs.audit.report(),
            gauges: obs.live_gauges(),
        }
    }

    /// The `doctor_<job>.json` document; [`parse`](Self::parse) reads
    /// it back.
    pub fn to_json(&self) -> Json {
        let trip = self.trip.as_ref().map(|t| {
            Json::obj([
                ("class", t.class.name().into()),
                ("epoch", t.epoch.into()),
                ("detail", t.detail.as_str().into()),
            ])
        });
        let events = self.events.iter().map(|ev| {
            let args = ev.args.iter().map(|(k, v)| (k.as_str(), Json::from(*v)));
            Json::obj([
                ("t_us", ev.t_us.into()),
                ("node", ev.node.into()),
                ("worker", ev.worker.into()),
                ("name", ev.name.as_str().into()),
                ("args", Json::obj(args)),
            ])
        });
        let gauges = self.gauges.iter().map(|g| {
            let dims = dims(&g.labels).map(|(dim, v)| (dim, Json::from(v)));
            let fields = [("name", g.name.as_str().into()), ("value", g.value.into())];
            Json::obj(fields.into_iter().chain(dims))
        });
        Json::obj([
            ("job", self.job.as_str().into()),
            ("engine", self.engine.as_str().into()),
            ("trip", trip.into()),
            ("error", self.error.as_deref().into()),
            ("events", events.collect()),
            ("dropped_events", self.dropped_events.into()),
            ("audit", self.audit.to_json()),
            ("gauges", gauges.collect()),
        ])
    }

    /// Parse a `doctor_<job>.json` document.
    pub fn parse(text: &str) -> Result<FlightRecord, String> {
        let v = json::parse(text)?;
        let s = |j: Option<&Json>, what: &str| {
            j.and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("flight record missing {what}"))
        };
        let trip = match v.get("trip") {
            None | Some(Json::Null) => None,
            Some(t) => Some(WatchdogTrip {
                class: WatchdogClass::from_name(&s(t.get("class"), "trip.class")?)?,
                epoch: t
                    .get("epoch")
                    .and_then(Json::as_u64)
                    .ok_or("flight record missing trip.epoch")?,
                detail: s(t.get("detail"), "trip.detail")?,
            }),
        };
        let error = match v.get("error") {
            None | Some(Json::Null) => None,
            Some(e) => Some(e.as_str().ok_or("error must be a string")?.to_string()),
        };
        let mut events = Vec::new();
        for ej in v
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("flight record missing events")?
        {
            let mut args = Vec::new();
            if let Some(Json::Obj(m)) = ej.get("args") {
                for (k, val) in m {
                    args.push((
                        k.clone(),
                        val.as_u64().ok_or("event arg must be a non-negative int")?,
                    ));
                }
            }
            events.push(RecordedEvent {
                t_us: ej
                    .get("t_us")
                    .and_then(Json::as_u64)
                    .ok_or("event missing t_us")?,
                node: ej
                    .get("node")
                    .and_then(Json::as_u64)
                    .ok_or("event missing node")? as u32,
                worker: ej
                    .get("worker")
                    .and_then(Json::as_u64)
                    .ok_or("event missing worker")? as u32,
                name: s(ej.get("name"), "event name")?,
                args,
            });
        }
        let engine = s(v.get("engine"), "engine")?;
        let mut gauges = Vec::new();
        for gj in v
            .get("gauges")
            .and_then(Json::as_arr)
            .ok_or("flight record missing gauges")?
        {
            let dim = |d: &str| gj.get(d).and_then(Json::as_u64).map(|v| v as u32);
            gauges.push(GaugeSample {
                name: s(gj.get("name"), "gauge name")?,
                labels: Labels {
                    job: None,
                    engine: Some(engine.clone()),
                    node: dim("node"),
                    flowlet: dim("flowlet"),
                    edge: dim("edge"),
                },
                value: gj
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("gauge missing value")? as i64,
            });
        }
        Ok(FlightRecord {
            job: s(v.get("job"), "job")?,
            engine,
            trip,
            error,
            events,
            // Absent in records written before drop accounting existed.
            dropped_events: v.get("dropped_events").and_then(Json::as_u64).unwrap_or(0),
            audit: AuditReport::from_json(v.get("audit").ok_or("flight record missing audit")?)?,
            gauges,
        })
    }

    /// The recorded error, unless it is the trip's own abort — the
    /// engine's `RunError::Watchdog` text for this trip, the same in
    /// this build's dumps and in older ones: a report states the trip
    /// once. Any other error, even one that quotes the trip, stays.
    fn error_beside_trip(&self) -> Option<&str> {
        let error = self.error.as_deref()?;
        match &self.trip {
            Some(t) if error == Self::abort_text(t) => None,
            _ => Some(error),
        }
    }

    /// What the engine's error says when the watchdog aborts on `trip`.
    fn abort_text(trip: &WatchdogTrip) -> String {
        let (epoch, class, detail) = (trip.epoch, trip.class.name(), &trip.detail);
        format!("watchdog aborted the job at epoch {epoch} ({class}): {detail}")
    }

    /// Ranked findings, most damning first. Each is one plain sentence.
    pub fn diagnose(&self) -> Vec<String> {
        let mut findings = Vec::new();
        if let Some(t) = &self.trip {
            findings.push(format!(
                "watchdog tripped at epoch {}: {} — {}",
                t.epoch,
                t.class.name(),
                t.detail
            ));
        }
        // Custody gaps: bins that entered an edge but never reached a
        // consuming task, ranked by gap size.
        for (row, gap) in self.audit.stuck_rows().into_iter().take(5) {
            let emit = row.stage(AuditStage::Emit);
            let ship = row.stage(AuditStage::Ship);
            let deliver = row.stage(AuditStage::Deliver);
            let consume = row.stage(AuditStage::Consume);
            let stuck_at = if emit.bins > ship.bins {
                "stuck in flow control (emitted, never shipped)"
            } else if ship.bins > deliver.bins {
                "lost in the fabric (shipped, never delivered)"
            } else {
                "delivered but never consumed"
            };
            findings.push(format!(
                "edge {} -> node {}: {} of {} bins {} (emit={} ship={} deliver={} consume={})",
                row.edge,
                row.dst,
                gap,
                emit.bins,
                stuck_at,
                emit.bins,
                ship.bins,
                deliver.bins,
                consume.bins
            ));
        }
        if let Err(violations) = self.audit.check() {
            // Conservation failures not already covered by a stuck row
            // (e.g. a double-delivered bin: consume > emit).
            for v in violations
                .iter()
                .filter(|v| v.field == "bins" && v.stages.iter().any(|&s| s > v.stages[0]))
            {
                findings.push(format!("conservation violated: {v}"));
            }
        }
        // Gauge hot spots at dump time.
        for (metric, what) in [
            ("deferred_bins", "bins deferred by flow control"),
            ("queue_depth", "bins queued for execution"),
            ("window_inflight", "unacked bins holding the window"),
        ] {
            if let Some((node, value)) = self
                .gauges
                .iter()
                .filter(|g| g.name == metric && g.value > 0)
                .filter_map(|g| Some((g.labels.node?, g.value)))
                .max_by_key(|&(_, v)| v)
            {
                findings.push(format!("node {node} still holds {value} {what}"));
            }
        }
        let error = self.error_beside_trip();
        if let Some(e) = error {
            findings.push(format!("job error: {e}"));
        }
        if findings.len() == (self.trip.is_some() as usize) + (error.is_some() as usize) {
            findings.push(
                "no custody gap and no hot gauges: suspect completion signalling \
                 (a flowlet that never announced EdgeComplete)"
                    .to_string(),
            );
        }
        findings
    }

    /// The full human-readable doctor report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "doctor report: job {:?} ({} engine)\n",
            self.job, self.engine
        ));
        match (&self.trip, &self.error) {
            (None, None) => out.push_str("status: no trip, no error recorded\n"),
            (trip, _) => {
                let error = self.error_beside_trip();
                if let Some(t) = trip {
                    // An abort that only restates the trip is said here,
                    // and its detail once, in the first finding.
                    let aborted = if self.error.is_some() && error.is_none() {
                        " (the watchdog aborted the job)"
                    } else {
                        ""
                    };
                    let (class, epoch) = (t.class.name(), t.epoch);
                    out.push_str(&format!("trip: {class} at epoch {epoch}{aborted}\n"));
                }
                if let Some(e) = error {
                    out.push_str(&format!("error: {e}\n"));
                }
            }
        }
        out.push_str("\ndiagnosis (ranked):\n");
        for (i, finding) in self.diagnose().iter().enumerate() {
            out.push_str(&format!("  {}. {}\n", i + 1, finding));
        }
        out.push('\n');
        out.push_str(&self.audit.render());
        let hot: Vec<&GaugeSample> = self.gauges.iter().filter(|g| g.value != 0).collect();
        if !hot.is_empty() {
            out.push_str("\nnon-zero gauges at dump time:\n");
            for g in hot {
                let series =
                    dims(&g.labels).fold(g.name.clone(), |s, (dim, v)| format!("{s} {dim} {v}"));
                out.push_str(&format!("  {series:<40} {}\n", g.value));
            }
        }
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "\nWARNING: the trace ring overflowed and lost {} events; the event tail has gaps\n",
                self.dropped_events
            ));
        }
        if !self.events.is_empty() {
            out.push_str(&format!(
                "\nlast {} trace events (of the bounded black-box ring):\n",
                self.events.len().min(20)
            ));
            for ev in self
                .events
                .iter()
                .rev()
                .take(20)
                .collect::<Vec<_>>()
                .iter()
                .rev()
            {
                let args = ev
                    .args
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push_str(&format!(
                    "  t={:<10} node {:<3} {:<17} {:<20} {}\n",
                    ev.t_us,
                    ev.node,
                    crate::lane_name(ev.worker),
                    ev.name,
                    args
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Audit, AuditStage};
    use super::*;
    use crate::{EventKind, MetricsRegistry, TraceEvent, TraceSink};

    fn observed(audit: Audit) -> Observe {
        Observe {
            audit,
            ..Default::default()
        }
    }

    fn sample_record() -> FlightRecord {
        let audit = Audit::new(2, 2);
        for stage in AuditStage::ALL {
            audit.record(stage, 0, 1, 8, 256);
        }
        // One bin delivered to node 1 on edge 1 but never consumed.
        audit.record(AuditStage::Emit, 1, 1, 4, 128);
        audit.record(AuditStage::Ship, 1, 1, 4, 128);
        audit.record(AuditStage::Deliver, 1, 1, 4, 128);
        // A two-slot ring: the three fillers overflow it, so the record
        // reports 3 dropped events and keeps the two that matter.
        let ring = RingSink::new(1, 2);
        let filler = (0..3).map(|t_us| TraceEvent {
            t_us,
            node: 0,
            worker: 0,
            kind: EventKind::DiskRead { bytes: 1 },
        });
        let events = [
            TraceEvent {
                t_us: 10,
                node: 0,
                worker: 1,
                kind: EventKind::BinShipped {
                    flowlet: 1,
                    edge: 1,
                    dst: 1,
                    records: 4,
                    bytes: 128,
                },
            },
            TraceEvent {
                t_us: 20,
                node: 0,
                worker: crate::WORKER_RUNTIME,
                kind: EventKind::Watchdog {
                    class: WatchdogClass::Hang,
                    epoch: 6,
                },
            },
        ];
        filler.chain(events).for_each(|ev| ring.record(ev));
        let obs = Observe {
            registry: Some(MetricsRegistry::new()),
            engine: "hamr",
            ..observed(audit)
        };
        obs.gauge("queue_depth", Labels::new().node(1).flowlet(2))
            .set(1);
        obs.gauge("net_inflight_bytes", Labels::new()).set(64);
        FlightRecord::capture(
            "wordcount",
            Some(WatchdogTrip {
                class: WatchdogClass::Hang,
                epoch: 6,
                detail: "no progress for 6 epochs".into(),
            }),
            Some("aborted by watchdog".into()),
            Some(&ring),
            64,
            &obs,
        )
    }

    #[test]
    fn capture_reads_the_ring_and_the_observed_sinks() {
        let record = sample_record();
        assert_eq!((record.events.len(), record.dropped_events), (2, 3));
        assert_eq!(record.engine, "hamr");
        assert_eq!(record.gauges.len(), 2);
        assert_eq!(record.gauges[0].name, "queue_depth");
        let labels = Labels::new().engine("hamr").node(1).flowlet(2);
        assert_eq!(
            (&record.gauges[0].labels, record.gauges[0].value),
            (&labels, 1)
        );
        assert!(!record.audit.stuck_rows().is_empty());
    }

    #[test]
    fn flight_record_round_trips_through_json() {
        let record = sample_record();
        let parsed = FlightRecord::parse(&record.to_json().to_string()).expect("parse back");
        assert_eq!(parsed, record);
    }

    /// A dump written before events carried every field: its
    /// `bin-shipped` has no `records`.
    #[test]
    fn a_record_with_the_older_narrower_event_args_reads_the_same() {
        let record = sample_record();
        let now = "\"args\":{\"bytes\":128,\"dst\":1,\"edge\":1,\"flowlet\":1,\"records\":4},\
                   \"name\":\"bin-shipped\"";
        let then = "\"args\":{\"bytes\":128,\"dst\":1,\"edge\":1,\"flowlet\":1},\
                    \"name\":\"bin-shipped\"";
        let json = record.to_json().to_string();
        assert_eq!(json.matches(now).count(), 1, "{json}");
        let older = FlightRecord::parse(&json.replace(now, then)).expect("older dump parses");
        let args = [("bytes", 128), ("dst", 1), ("edge", 1), ("flowlet", 1)];
        assert_eq!(older.events[0].name, "bin-shipped");
        assert_eq!(
            older.events[0].args,
            args.map(|(k, v)| (k.to_string(), v)).to_vec()
        );
        assert_eq!(older.diagnose(), record.diagnose());
        assert!(older
            .render()
            .contains("bytes=128 dst=1 edge=1 flowlet=1\n"));
    }

    /// A dump written while bins still carried a lineage `span` id:
    /// six event kinds had a `span` arg. It parses, keeps the arg as
    /// written, and yields the findings that build's doctor gave for
    /// the same ledger, gauges, trip and error.
    #[test]
    fn a_record_whose_events_carry_span_ids_reads_the_same() {
        let text = r#"{"job":"wordcount","engine":"hamr",
            "trip":{"class":"hang","epoch":6,"detail":"no progress for 6 epochs"},
            "error":"aborted by watchdog","events":[
            {"t_us":4,"node":0,"worker":1,"name":"task-start","args":{"flowlet":1,"span":0}},
            {"t_us":6,"node":0,"worker":1,"name":"bin-emitted",
             "args":{"dst":1,"edge":1,"flowlet":1,"records":4,"span":7}},
            {"t_us":7,"node":0,"worker":1,"name":"flow-stall",
             "args":{"dst":1,"edge":1,"flowlet":1,"span":7}},
            {"t_us":9,"node":0,"worker":4294967295,"name":"flow-resume",
             "args":{"dst":1,"edge":1,"flowlet":1,"span":7,"stalled_us":2}},
            {"t_us":10,"node":0,"worker":1,"name":"bin-shipped",
             "args":{"bytes":128,"dst":1,"edge":1,"flowlet":1,"records":4,"span":7}},
            {"t_us":12,"node":1,"worker":4294967295,"name":"bin-ingress",
             "args":{"edge":1,"flowlet":2,"from":0,"span":7}},
            {"t_us":20,"node":0,"worker":4294967295,"name":"watchdog-hang","args":{"epoch":6}}],
            "dropped_events":3,
            "audit":{"edges":2,"nodes":2,"rows":[
            {"edge":0,"dst":1,"emit":{"bins":1,"records":8,"bytes":256},
             "ship":{"bins":1,"records":8,"bytes":256},
             "deliver":{"bins":1,"records":8,"bytes":256},
             "consume":{"bins":1,"records":8,"bytes":256}},
            {"edge":1,"dst":1,"emit":{"bins":1,"records":4,"bytes":128},
             "ship":{"bins":1,"records":4,"bytes":128},
             "deliver":{"bins":1,"records":4,"bytes":128},
             "consume":{"bins":0,"records":0,"bytes":0}}],"combines":[]},
            "gauges":[{"name":"queue_depth","node":1,"flowlet":2,"value":1},
            {"name":"net_inflight_bytes","value":64}]}"#;
        let record = FlightRecord::parse(text).expect("a dump with span args parses");
        assert_eq!((record.events.len(), record.dropped_events), (7, 3));
        let spans = record
            .events
            .iter()
            .filter(|e| e.args.iter().any(|(k, _)| k == "span"));
        assert_eq!(spans.count(), 6, "span args are kept as written");
        assert_eq!(
            record.diagnose(),
            [
                "watchdog tripped at epoch 6: hang — no progress for 6 epochs",
                "edge 1 -> node 1: 1 of 1 bins delivered but never consumed \
                 (emit=1 ship=1 deliver=1 consume=0)",
                "node 1 still holds 1 bins queued for execution",
                "job error: aborted by watchdog",
            ]
        );
        assert!(record.render().contains("bin-ingress"));
        // Rewritten by this build's writer (keys sorted), it is the
        // same record and renders the same report.
        let rewritten = FlightRecord::parse(&record.to_json().to_string()).expect("reparse");
        assert_eq!(rewritten, record);
        assert_eq!(rewritten.render(), record.render());
    }

    /// An aborting watchdog's error restates its trip (the engine's
    /// `RunError::Watchdog` text, in this build's dumps and in older
    /// ones): the report says the trip's detail once, and no `job error`.
    /// Any other error beside a trip is its own finding.
    #[test]
    fn an_abort_that_restates_the_trip_is_stated_once() {
        let mut record = sample_record();
        let detail = "no progress for 6 epochs";
        record.error = Some(format!(
            "watchdog aborted the job at epoch 6 (hang): {detail}"
        ));
        let report = record.render();
        assert_eq!(report.matches(detail).count(), 1, "{report}");
        assert!(report.contains("trip: hang at epoch 6 (the watchdog aborted the job)\n"));
        assert!(!report.contains("error:"), "{report}");
        let findings = record.diagnose();
        assert!(findings.iter().all(|f| !f.starts_with("job error")));
        assert_eq!(
            findings[0],
            format!("watchdog tripped at epoch 6: hang — {detail}")
        );

        record.error = Some("node 2 runtime panicked: boom".into());
        let report = record.render();
        assert!(report.contains("trip: hang at epoch 6\nerror: node 2 runtime panicked: boom\n"));
        let last = record.diagnose().pop().unwrap();
        assert_eq!(last, "job error: node 2 runtime panicked: boom");

        // An error that only quotes the trip's detail is not the abort.
        let quoting = format!("node 2 runtime panicked: saw {detail}");
        record.error = Some(quoting.clone());
        let last = record.diagnose().pop().unwrap();
        assert_eq!(last, format!("job error: {quoting}"));
        assert!(record.render().contains(&format!("error: {quoting}\n")));
    }

    #[test]
    fn diagnosis_names_the_stuck_edge_first_after_the_trip() {
        let record = sample_record();
        let findings = record.diagnose();
        assert!(findings[0].contains("hang"), "{findings:?}");
        assert!(
            findings[1].contains("edge 1 -> node 1") && findings[1].contains("never consumed"),
            "{findings:?}"
        );
        assert!(
            findings.contains(&"node 1 still holds 1 bins queued for execution".to_string()),
            "{findings:?}"
        );
        let rendered = record.render();
        assert!(rendered.contains("diagnosis (ranked):"));
        assert!(rendered.contains("watchdog-hang"), "event tail rendered");
        assert!(
            rendered.contains("queue_depth node 1 flowlet 2"),
            "{rendered}"
        );
        assert!(rendered.contains("net_inflight_bytes "), "{rendered}");
    }

    #[test]
    fn capture_keeps_only_the_newest_events() {
        let ring = RingSink::new(1, 128);
        for i in 0..100 {
            ring.record(TraceEvent {
                t_us: i,
                node: 0,
                worker: 0,
                kind: EventKind::DiskRead { bytes: i },
            });
        }
        let record = FlightRecord::capture("j", None, None, Some(&ring), 16, &Observe::default());
        assert_eq!(record.events.len(), 16);
        assert_eq!(record.events[0].t_us, 84, "oldest kept event");
        assert_eq!(record.events.last().unwrap().t_us, 99);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FlightRecord::parse("not json").is_err());
        assert!(FlightRecord::parse("{}").is_err());
        assert!(FlightRecord::parse("{\"job\":\"x\"}").is_err());
    }

    #[test]
    fn clean_record_diagnosis_points_at_completion_signalling() {
        let obs = observed(Audit::new(1, 1));
        let record = FlightRecord::capture("clean", None, None, None, 8, &obs);
        let findings = record.diagnose();
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].contains("completion signalling"),
            "{findings:?}"
        );
    }
}
