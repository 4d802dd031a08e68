//! Chrome trace-event JSON export.
//!
//! Produces the `{"traceEvents": [...]}` object-format document that
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load
//! directly. Mapping:
//!
//! * `pid` = cluster node, `tid` = worker lane;
//! * `TaskStart`/`TaskEnd` pairs become `"X"` (complete) slices with
//!   record counts in `args`;
//! * `FlowControlResume` synthesizes a retroactive `"X"` stall slice
//!   covering the time the bin sat in the deferred queue;
//! * `SpillStart`/`SpillEnd` pairs become `"X"` spill slices;
//! * `WorkerUnparked` likewise synthesizes a `parked` slice;
//! * everything else (`BinShipped`, `NetSend`, ...) becomes an `"i"`
//!   instant named and argued by [`EventKind::describe`];
//! * `"M"` metadata events name processes and the synthetic lanes.
//!
//! The document is one [`Json`] value printed by its writer, so every
//! event object's keys come out sorted.

use crate::json::Json;
use crate::{lane_name, EventKind, TaskKind, TraceEvent, WORKER_DISK, WORKER_NET, WORKER_RUNTIME};
use std::collections::BTreeSet;
use std::collections::HashMap;

/// One `TaskEnd`, with the `TaskStart` it closes: a slice here, busy
/// time in the wall-time attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaskSpan {
    pub node: u32,
    pub worker: u32,
    /// `None` when no start on this lane matches — the ring dropped it.
    pub start_us: Option<u64>,
    pub end_us: u64,
}

/// Pair every `TaskEnd` with the innermost open `TaskStart` of the
/// same task kind and flowlet on its `(node, worker)` lane — tasks on
/// one worker nest. Events need not be sorted. One span per `TaskEnd`,
/// in time order; a start that never ends is dropped.
pub(crate) fn task_spans(events: &[TraceEvent]) -> Vec<TaskSpan> {
    let mut evs: Vec<&TraceEvent> = events.iter().collect();
    evs.sort_by_key(|e| e.t_us);
    type OpenTask = (u64, TaskKind, u32);
    let mut open: HashMap<(u32, u32), Vec<OpenTask>> = HashMap::new();
    let mut spans = Vec::new();
    for ev in evs {
        let lane = (ev.node, ev.worker);
        match ev.kind {
            EventKind::TaskStart { task, flowlet } => {
                open.entry(lane).or_default().push((ev.t_us, task, flowlet));
            }
            EventKind::TaskEnd { task, flowlet, .. } => {
                let stack = open.entry(lane).or_default();
                let start = stack
                    .iter()
                    .rposition(|&(_, t, f)| t == task && f == flowlet)
                    .map(|i| stack.remove(i).0);
                spans.push(TaskSpan {
                    node: ev.node,
                    worker: ev.worker,
                    start_us: start,
                    end_us: ev.t_us,
                });
            }
            _ => {}
        }
    }
    spans
}

/// Perfetto sorts tids numerically; remap the sentinel lanes to small
/// negative-looking slots so "runtime/net/disk" group below workers
/// while keeping worker ids stable.
fn lane_tid(worker: u32) -> u64 {
    match worker {
        WORKER_RUNTIME => 1_000_000,
        WORKER_NET => 1_000_001,
        WORKER_DISK => 1_000_002,
        w => w as u64,
    }
}

/// One drawn event on `ev`'s lane: a `"X"` slice from `start_us` to
/// the event, or (no start) a thread-scoped `"i"` instant at it.
fn drawn(
    name: &str,
    cat: &str,
    ev: &TraceEvent,
    start_us: Option<u64>,
    args: &[(&str, u64)],
) -> Json {
    let mut fields = vec![
        ("name", name.into()),
        ("cat", cat.into()),
        ("pid", ev.node.into()),
        ("tid", lane_tid(ev.worker).into()),
    ];
    match start_us {
        Some(ts) => fields.extend([
            ("ph", "X".into()),
            ("ts", ts.into()),
            ("dur", ev.t_us.saturating_sub(ts).into()),
        ]),
        None => fields.extend([
            ("ph", "i".into()),
            ("s", "t".into()),
            ("ts", ev.t_us.into()),
        ]),
    }
    if !args.is_empty() {
        let args = args.iter().map(|&(k, v)| (k, Json::from(v)));
        fields.push(("args", Json::obj(args)));
    }
    Json::obj(fields)
}

fn metadata(name: &str, pid: u32, tid: Option<u64>, value: &str) -> Json {
    let mut fields = vec![
        ("name", name.into()),
        ("ph", "M".into()),
        ("pid", pid.into()),
        ("args", Json::obj([("name", value.into())])),
    ];
    fields.extend(tid.map(|tid| ("tid", tid.into())));
    Json::obj(fields)
}

/// Render `events` as a Chrome trace-event JSON document.
///
/// Events need not be sorted; they are sorted internally. Unpaired
/// `TaskStart`s (e.g. from a truncated ring buffer) are dropped;
/// unpaired `TaskEnd`s become instants so nothing is silently lost.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut evs: Vec<&TraceEvent> = events.iter().collect();
    evs.sort_by_key(|e| e.t_us);

    // Every event object, in output order.
    let mut em: Vec<Json> = Vec::new();
    // One span per TaskEnd, in the order the loop below meets them.
    let mut spans = task_spans(events).into_iter();
    // Per-(node, worker, flowlet) open SpillStarts.
    let mut spill_open: HashMap<(u32, u32, u32), u64> = HashMap::new();
    let mut lanes_seen: BTreeSet<(u32, u32)> = BTreeSet::new();

    for ev in &evs {
        lanes_seen.insert((ev.node, ev.worker));
        let (name, cat, mut args) = ev.kind.describe();
        // Four shapes are an interval, drawn by the event that closes
        // it — the one that knows how long it was — under the slice's
        // own name. Everything else is an instant under its
        // `describe()` name.
        let (name, start_us) = match &ev.kind {
            EventKind::TaskStart { .. } => continue,
            EventKind::SpillStart { flowlet } => {
                spill_open.insert((ev.node, ev.worker, *flowlet), ev.t_us);
                continue;
            }
            // An end whose start fell off the ring has no `start_us`:
            // an instant, so nothing is silently lost.
            EventKind::TaskEnd { task, .. } => {
                let span = spans.next().expect("task_spans yields one per TaskEnd");
                (task.name(), span.start_us)
            }
            EventKind::FlowControlResume { stalled_us, .. } => {
                args.retain(|(k, _)| *k != "stalled_us");
                (
                    "flow-control stall",
                    Some(ev.t_us.saturating_sub(*stalled_us)),
                )
            }
            EventKind::SpillEnd { flowlet, .. } => {
                let open = spill_open.remove(&(ev.node, ev.worker, *flowlet));
                ("spill", Some(open.unwrap_or(ev.t_us)))
            }
            EventKind::WorkerUnparked { parked_us } => {
                args.clear();
                ("parked", Some(ev.t_us.saturating_sub(*parked_us)))
            }
            _ => (name, None),
        };
        em.push(drawn(name, cat, ev, start_us, &args));
    }

    // Name processes and lanes so the timeline is readable.
    let nodes: BTreeSet<u32> = lanes_seen.iter().map(|(n, _)| *n).collect();
    for node in nodes {
        let name = format!("node {node}");
        em.push(metadata("process_name", node, None, &name));
    }
    for (node, worker) in &lanes_seen {
        let tid = Some(lane_tid(*worker));
        em.push(metadata("thread_name", *node, tid, &lane_name(*worker)));
    }

    format!("{}\n", Json::obj([("traceEvents", Json::Arr(em))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::tests::ev;

    #[test]
    fn nested_tasks_pair_innermost_first() {
        use crate::TaskKind::{FireReduce, MapBin, ReduceIngest};
        let start = |t_us, task| ev(t_us, 0, 0, EventKind::TaskStart { task, flowlet: 1 });
        let end = |t_us, task| {
            let kind = EventKind::TaskEnd {
                task,
                flowlet: 1,
                records_in: 5,
                records_out: 1,
            };
            ev(t_us, 0, 0, kind)
        };
        // fire-reduce wraps reduce-ingest on the same worker; the
        // map-bin end lost its start to the ring.
        let spans = task_spans(&[
            start(0, FireReduce),
            start(10, ReduceIngest),
            end(20, ReduceIngest),
            end(30, MapBin),
            end(40, FireReduce),
        ]);
        let seen: Vec<_> = spans.iter().map(|s| (s.start_us, s.end_us)).collect();
        assert_eq!(seen, [(Some(10), 20), (None, 30), (Some(0), 40)]);
    }

    fn events_of(doc: &str) -> Vec<Json> {
        let parsed = parse(doc).expect("exporter output is valid JSON");
        parsed
            .get("traceEvents")
            .expect("has traceEvents")
            .as_arr()
            .expect("traceEvents is an array")
            .to_vec()
    }

    #[test]
    fn task_pair_becomes_complete_slice() {
        let doc = chrome_trace_json(&[
            ev(
                100,
                0,
                1,
                EventKind::TaskStart {
                    task: TaskKind::MapBin,
                    flowlet: 2,
                },
            ),
            ev(
                350,
                0,
                1,
                EventKind::TaskEnd {
                    task: TaskKind::MapBin,
                    flowlet: 2,
                    records_in: 64,
                    records_out: 32,
                },
            ),
        ]);
        let evs = events_of(&doc);
        let slice = evs
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("one X slice");
        assert_eq!(slice.get("name").unwrap().as_str(), Some("map-bin"));
        assert_eq!(slice.get("ts").unwrap().as_u64(), Some(100));
        assert_eq!(slice.get("dur").unwrap().as_u64(), Some(250));
        assert_eq!(slice.get("pid").unwrap().as_u64(), Some(0));
        assert_eq!(slice.get("tid").unwrap().as_u64(), Some(1));
        let args = slice.get("args").unwrap();
        assert_eq!(args.get("records_in").unwrap().as_u64(), Some(64));
        assert_eq!(args.get("records_out").unwrap().as_u64(), Some(32));
    }

    #[test]
    fn resume_synthesizes_retroactive_stall_slice() {
        let doc = chrome_trace_json(&[ev(
            5000,
            3,
            crate::WORKER_RUNTIME,
            EventKind::FlowControlResume {
                flowlet: 1,
                edge: 0,
                dst: 2,
                stalled_us: 1200,
            },
        )]);
        let evs = events_of(&doc);
        let stall = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("flow-control stall"))
            .expect("stall slice present");
        assert_eq!(stall.get("ts").unwrap().as_u64(), Some(3800));
        assert_eq!(stall.get("dur").unwrap().as_u64(), Some(1200));
    }

    #[test]
    fn unpaired_end_becomes_instant_not_panic() {
        let doc = chrome_trace_json(&[ev(
            10,
            0,
            0,
            EventKind::TaskEnd {
                task: TaskKind::FireReduce,
                flowlet: 0,
                records_in: 1,
                records_out: 1,
            },
        )]);
        let evs = events_of(&doc);
        assert!(evs
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("i")
                && e.get("name").and_then(Json::as_str) == Some("fire-reduce")));
    }

    #[test]
    fn metadata_names_nodes_and_lanes() {
        let doc = chrome_trace_json(&[
            ev(1, 0, 0, EventKind::DiskRead { bytes: 4 }),
            ev(
                2,
                1,
                crate::WORKER_NET,
                EventKind::NetSend { to: 0, bytes: 9 },
            ),
        ]);
        let evs = events_of(&doc);
        let metas: Vec<&Json> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert!(metas.iter().any(|m| {
            m.get("name").and_then(Json::as_str) == Some("process_name")
                && m.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("node 1")
        }));
        assert!(metas.iter().any(|m| {
            m.get("name").and_then(Json::as_str) == Some("thread_name")
                && m.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("net")
        }));
    }

    #[test]
    fn steal_and_park_events_round_trip() {
        let doc = chrome_trace_json(&[
            ev(
                100,
                0,
                1,
                EventKind::TaskStolen {
                    thief: 1,
                    victim: 0,
                    flowlet: 3,
                },
            ),
            ev(200, 0, 1, EventKind::WorkerParked),
            ev(1400, 0, 1, EventKind::WorkerUnparked { parked_us: 1200 }),
        ]);
        let evs = events_of(&doc);
        let steal = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("task-stolen"))
            .expect("steal instant present");
        assert_eq!(steal.get("ph").unwrap().as_str(), Some("i"));
        let args = steal.get("args").unwrap();
        assert_eq!(args.get("thief").unwrap().as_u64(), Some(1));
        assert_eq!(args.get("victim").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("flowlet").unwrap().as_u64(), Some(3));
        // The unpark synthesizes a retroactive park slice covering the
        // slept interval.
        let park = evs
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("parked")
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            })
            .expect("park slice present");
        assert_eq!(park.get("ts").unwrap().as_u64(), Some(200));
        assert_eq!(park.get("dur").unwrap().as_u64(), Some(1200));
    }
}
