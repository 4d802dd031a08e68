//! Property tests of the wall-time attribution over arbitrary
//! synthetic produce→defer→ship→deliver→fire chains. Whatever the
//! interleaving across nodes, the buckets partition lanes × wall, the
//! stall-edge ranking sums the deferrals, and the `net` bucket — which
//! pairs `BinShipped` with `BinIngress` by count, not by bin — is the
//! part of a node's in-flight windows its lane is not busy for.

use hamr_trace::{analyze, EventKind, TaskKind, TraceEvent};
use proptest::prelude::*;

/// One synthetic bin chain, parameterized by generated knobs.
#[derive(Debug, Clone)]
struct Chain {
    src: u32,
    dst: u32,
    start_us: u64,
    /// Gap between emit and ship (0 = shipped immediately; >0 models a
    /// flow-control defer, with stall/resume events bracketing it).
    defer_us: u64,
    /// Network transit time between ship and ingress.
    net_us: u64,
    /// Queue wait between ingress and the consuming task's start.
    queue_us: u64,
    /// Consuming task's execution time.
    run_us: u64,
}

fn chain_strategy() -> impl Strategy<Value = Chain> {
    (
        (0u32..4, 0u32..4, 0u64..10_000),
        (0u64..500, 1u64..300, 0u64..200, 1u64..400),
    )
        .prop_map(
            |((src, dst, start_us), (defer_us, net_us, queue_us, run_us))| Chain {
                src,
                dst,
                start_us,
                defer_us,
                net_us,
                queue_us,
                run_us,
            },
        )
}

/// Render the chains into the event stream the engine would produce;
/// lane 0 everywhere.
fn synthesize(chains: &[Chain]) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for c in chains {
        let (flowlet, edge) = (0u32, 0u32);
        let t_emit = c.start_us;
        events.push(TraceEvent {
            t_us: t_emit,
            node: c.src,
            worker: 0,
            kind: EventKind::BinEmitted {
                flowlet,
                edge,
                dst: c.dst,
                records: 1,
            },
        });
        let t_ship = t_emit + c.defer_us;
        if c.defer_us > 0 {
            events.push(TraceEvent {
                t_us: t_emit,
                node: c.src,
                worker: 0,
                kind: EventKind::FlowControlStall {
                    flowlet,
                    edge,
                    dst: c.dst,
                },
            });
            events.push(TraceEvent {
                t_us: t_ship,
                node: c.src,
                worker: 0,
                kind: EventKind::FlowControlResume {
                    flowlet,
                    edge,
                    dst: c.dst,
                    stalled_us: c.defer_us,
                },
            });
        }
        events.push(TraceEvent {
            t_us: t_ship,
            node: c.src,
            worker: 0,
            kind: EventKind::BinShipped {
                flowlet,
                edge,
                dst: c.dst,
                records: 1,
                bytes: 64,
            },
        });
        let t_ingress = t_ship + c.net_us;
        events.push(TraceEvent {
            t_us: t_ingress,
            node: c.dst,
            worker: u32::MAX,
            kind: EventKind::BinIngress {
                flowlet: 1,
                edge,
                from: c.src,
            },
        });
        let t_start = t_ingress + c.queue_us;
        events.push(TraceEvent {
            t_us: t_start,
            node: c.dst,
            worker: 0,
            kind: EventKind::TaskStart {
                task: TaskKind::MapBin,
                flowlet: 1,
            },
        });
        events.push(TraceEvent {
            t_us: t_start + c.run_us,
            node: c.dst,
            worker: 0,
            kind: EventKind::TaskEnd {
                task: TaskKind::MapBin,
                flowlet: 1,
                records_in: 1,
                records_out: 0,
            },
        });
    }
    // RingSink::drain sorts by timestamp; match that contract.
    events.sort_by_key(|e| e.t_us);
    events
}

/// The model of one destination node's `net` bucket, microsecond by
/// microsecond: the instants inside some chain's `[ship, ingress)`
/// window toward `node` while no task runs on its lane.
fn net_model(chains: &[Chain], node: u32) -> u64 {
    let to_node: Vec<&Chain> = chains.iter().filter(|c| c.dst == node).collect();
    let end = to_node
        .iter()
        .map(|c| c.start_us + c.net_us + c.queue_us + c.run_us)
        .max()
        .unwrap_or(0);
    (0..end)
        .filter(|&t| {
            let in_flight = to_node.iter().any(|c| {
                let ship = c.start_us + c.defer_us;
                ship <= t && t < ship + c.net_us
            });
            let busy = to_node.iter().any(|c| {
                let start = c.start_us + c.defer_us + c.net_us + c.queue_us;
                start <= t && t < start + c.run_us
            });
            in_flight && !busy
        })
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The attribution buckets partition lanes × wall exactly, and the
    /// stall ranking's total is the sum of the chains' deferrals.
    #[test]
    fn buckets_conserve_and_stalls_sum_to_the_deferrals(
        chains in prop::collection::vec(chain_strategy(), 1..40),
    ) {
        let events = synthesize(&chains);
        let report = analyze(&events, 0);
        let expected = report.lanes as u64 * report.wall_us;
        prop_assert_eq!(
            report.total.total(),
            expected,
            "buckets {:?} must sum to lanes*wall",
            report.total
        );
        let want_stall: u64 = chains.iter().map(|c| c.defer_us).filter(|&d| d > 0).sum();
        let got_stall: u64 = report.stall_edges.iter().map(|s| s.stalled_us).sum();
        prop_assert_eq!(got_stall, want_stall);
        let want_stalls = chains.iter().filter(|c| c.defer_us > 0).count() as u64;
        let got_stalls: u64 = report.stall_edges.iter().map(|s| s.stalls).sum();
        prop_assert_eq!(got_stalls, want_stalls);
    }

    /// With no deferral there is no stall to outrank `net`, so each
    /// destination node's `net_us` (one lane: 0) is exactly the union
    /// of its chains' `[ship, ingress]` windows minus its busy time.
    #[test]
    fn net_is_the_in_flight_time_a_destination_lane_is_not_busy(
        chains in prop::collection::vec(
            chain_strategy().prop_map(|c| Chain { defer_us: 0, ..c }),
            1..40,
        ),
    ) {
        let report = analyze(&synthesize(&chains), 0);
        let mut dsts: Vec<u32> = chains.iter().map(|c| c.dst).collect();
        dsts.sort_unstable();
        dsts.dedup();
        let nodes: Vec<u32> = report.per_node.iter().map(|n| n.node).collect();
        prop_assert_eq!(&nodes, &dsts);
        for n in &report.per_node {
            prop_assert_eq!(n.lanes, 1);
            prop_assert_eq!(n.buckets.stall_us, 0);
            prop_assert_eq!(n.buckets.net_us, net_model(&chains, n.node), "node {}", n.node);
        }
    }

    /// Nested/overlapping tasks on one lane (a worker lane interleaving
    /// is impossible, but the sorted stream can tie-break arbitrarily)
    /// must never panic or break conservation.
    #[test]
    fn analyze_never_panics_on_shuffled_subsets(
        chains in prop::collection::vec(chain_strategy(), 1..20),
        keep in prop::collection::vec(any::<bool>(), 6*20),
    ) {
        let full = synthesize(&chains);
        let events: Vec<TraceEvent> = full
            .into_iter()
            .enumerate()
            .filter(|(i, _)| keep.get(*i).copied().unwrap_or(true))
            .map(|(_, e)| e)
            .collect();
        if events.is_empty() {
            return Ok(());
        }
        let report = analyze(&events, 0);
        let expected = report.lanes as u64 * report.wall_us;
        prop_assert_eq!(report.total.total(), expected);
    }
}
