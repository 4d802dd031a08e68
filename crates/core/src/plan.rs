//! The execution plan: every per-job fact about an edge or a flowlet,
//! decided once.
//!
//! [`Cluster::run_with`](crate::Cluster::run_with) compiles the
//! validated [`JobGraph`] against the runtime configuration, the node
//! count and the resident store into one immutable [`ExecPlan`], shared
//! by every node runtime of the job. What is resolved when:
//!
//! * **per job** (here): an edge's combiner, whether it combines
//!   in-node and holds partials across tasks, fills the resident store,
//!   and is sketched by the statistics plane; a flowlet's name,
//!   output ports, capture flag and resident hit;
//! * **per task** (`TaskOutput::new`): two refcount bumps for the
//!   flowlet's name and ports, and the loan of the executing worker's
//!   combine buffers for the ports whose flag asks for them (they
//!   outlive the task and keep their partials);
//! * **per record** (`TaskOutput::emit`): the key hash, and the flag
//!   bits of the [`PortSpec`] the task already holds.
//!
//! Every node must agree on these facts — which partitions are served
//! from the cache, which edges combine — so nothing here may be decided
//! per node, and nothing changes while the job runs.

use crate::config::RuntimeConfig;
use crate::graph::{EdgeId, Exchange, FlowletKind, JobGraph};
use crate::outbuf::Combiner;
use crate::resident::{ResidentHit, ResidentStore};
use std::sync::Arc;

/// One output port as seen by a task: its edge, and the edge's
/// decisions the emit path reads on every record or bin close.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortSpec {
    pub edge: EdgeId,
    pub exchange: Exchange,
    /// See [`EdgePlan::combine`], [`EdgePlan::hold`], [`EdgePlan::fill`],
    /// [`EdgePlan::sketch`].
    pub combine: bool,
    pub hold: bool,
    pub fill: bool,
    pub sketch: bool,
}

/// One edge's per-job decisions.
#[derive(Debug)]
pub(crate) struct EdgePlan {
    /// The edge's associative combiner — kept only on a `Hash` exchange
    /// into a `Reduce`/`PartialReduce`, the one place pre-merging values
    /// cannot change the result.
    pub combiner: Option<Arc<dyn Combiner>>,
    /// In-node combining: producers fold duplicate keys before bins
    /// ship.
    pub combine: bool,
    /// The combine buffers keep their partials past the end of the task
    /// that folded them, until the destination's window has room or the
    /// producer completes (a flush task then drains them ahead of
    /// `EdgeComplete`). Not in a streaming job: an epoch's records must
    /// leave ahead of its `Marker`, so there every task drains whole.
    pub hold: bool,
    /// Frames closed on this edge are pinned for the resident store
    /// (post-combine, so a serve replays them identically).
    pub fill: bool,
    /// The statistics plane sketches (and lineage-samples) this edge's
    /// bins: a hash-exchange edge, where keys say which node a shuffle
    /// funnels records onto. The only place that decides it; loader
    /// and local edges carry keys (line offsets) distinct by
    /// construction.
    pub sketch: bool,
}

/// One flowlet's per-job decisions.
#[derive(Debug)]
pub(crate) struct FlowletPlan {
    pub name: Arc<str>,
    pub ports: Arc<[PortSpec]>,
    pub capture: bool,
    /// Served from the resident store this run: its loader splits are
    /// suppressed and `ports[port][node]` frame clones are injected
    /// straight into the local consumer queues.
    pub serve: Option<ResidentHit>,
    /// Its emitted frames are captured this run and pinned under its
    /// cache tag when the job succeeds.
    pub fill: bool,
}

/// A compiled job: the graph plus everything derived from it once.
#[derive(Debug)]
pub(crate) struct ExecPlan {
    pub graph: Arc<JobGraph>,
    pub nodes: usize,
    /// Records per bin before the output buffer packs and ships one.
    pub bin_capacity: usize,
    pub edges: Vec<EdgePlan>,
    pub flowlets: Vec<FlowletPlan>,
}

impl ExecPlan {
    /// The edges the statistics plane is built over.
    pub(crate) fn sketched_edges(&self) -> Vec<u32> {
        let edges = 0..self.edges.len() as u32;
        edges.filter(|&e| self.edges[e as usize].sketch).collect()
    }

    pub(crate) fn compile(
        graph: &Arc<JobGraph>,
        cfg: &RuntimeConfig,
        nodes: usize,
        resident: &ResidentStore,
    ) -> Arc<ExecPlan> {
        // Residency first: an annotated flowlet either serves from the
        // store or fills it, and its out-edges inherit the answer.
        let residency: Vec<(Option<ResidentHit>, bool)> = graph
            .flowlets
            .iter()
            .map(|def| {
                let Some(spec) = def.cache.as_ref() else {
                    return (None, false);
                };
                let hit = resident.lookup(&spec.tag, spec.fingerprint, nodes, def.out_edges.len());
                let fill = hit.is_none();
                (hit, fill)
            })
            .collect();
        let edges: Vec<EdgePlan> = graph
            .edges
            .iter()
            .enumerate()
            .map(|(e, def)| {
                let aggregating = matches!(
                    graph.flowlets[def.dst].kind,
                    FlowletKind::Reduce(_) | FlowletKind::PartialReduce(_)
                );
                let combiner = graph
                    .edge_combiners
                    .get(e)
                    .cloned()
                    .flatten()
                    .filter(|_| def.exchange == Exchange::Hash && aggregating);
                let mitigable = combiner.is_some();
                EdgePlan {
                    combiner,
                    combine: mitigable && cfg.skew.combine,
                    hold: mitigable && cfg.skew.combine && !graph.has_stream,
                    fill: residency[def.src].1,
                    sketch: def.exchange == Exchange::Hash,
                }
            })
            .collect();
        let flowlets = graph
            .flowlets
            .iter()
            .zip(residency)
            .enumerate()
            .map(|(f, (def, (serve, fill)))| FlowletPlan {
                name: def.name.as_str().into(),
                ports: graph
                    .out_ports(f)
                    .into_iter()
                    .map(|(edge, exchange)| PortSpec {
                        edge,
                        exchange,
                        combine: edges[edge].combine,
                        hold: edges[edge].hold,
                        fill: edges[edge].fill,
                        sketch: edges[edge].sketch,
                    })
                    .collect(),
                capture: def.capture,
                serve,
                fill,
            })
            .collect();
        Arc::new(ExecPlan {
            graph: Arc::clone(graph),
            nodes,
            bin_capacity: cfg.bin_capacity,
            edges,
            flowlets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkewConfig;
    use crate::typed::{map_fn, pairs_loader, reduce_fn, sum_combiner};
    use crate::{Cluster, ClusterConfig, Emitter, JobBuilder};

    /// loader -Local-> map -Hash+combiner-> reduce, with a hook to
    /// annotate the builder before it freezes.
    fn combined_graph(annotate: impl FnOnce(&mut JobBuilder)) -> Arc<JobGraph> {
        let mut b = JobBuilder::new("plantest");
        let l = b.add_loader("L", pairs_loader(vec![(1u64, 1u64), (2, 1), (1, 1)]));
        let m = b.add_map(
            "M",
            map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
        );
        let r = b.add_reduce(
            "R",
            reduce_fn(|k: u64, vs: crate::typed::Values<u64>, out: &mut Emitter| {
                out.output_t(&k, &vs.sum::<u64>());
            }),
        );
        b.connect(l, m, Exchange::Local);
        b.connect_combined(m, r, Exchange::Hash, sum_combiner());
        b.capture_output(r);
        annotate(&mut b);
        Arc::new(b.build().unwrap())
    }

    fn compile(graph: &Arc<JobGraph>, skew: SkewConfig, nodes: usize) -> Arc<ExecPlan> {
        let cfg = RuntimeConfig {
            skew,
            ..Default::default()
        };
        ExecPlan::compile(graph, &cfg, nodes, &ResidentStore::new(&Default::default()))
    }

    #[test]
    fn eligibility_requires_hash_into_reduce() {
        let plan = compile(&combined_graph(|_| {}), SkewConfig::default(), 4);
        // Edge 0 is Local (no combiner), edge 1 is Hash into Reduce.
        let (local, hash) = (&plan.edges[0], &plan.edges[1]);
        assert!(!local.combine && !local.hold && !local.sketch);
        assert!(local.combiner.is_none());
        assert!(hash.combine && hash.hold && hash.sketch);
        assert!(hash.combiner.is_some());
        // Flowlets carry the same answers: the map's one port, names
        // and capture flags.
        let port = plan.flowlets[1].ports[0];
        assert_eq!((port.edge, port.exchange), (1, Exchange::Hash));
        assert!(port.combine && port.hold && !port.fill && port.sketch);
        assert_eq!(plan.sketched_edges(), [1]);
        assert_eq!(&*plan.flowlets[1].name, "M");
        assert!(plan.flowlets[2].capture && !plan.flowlets[1].capture);
    }

    #[test]
    fn off_config_is_inert() {
        let plan = compile(&combined_graph(|_| {}), SkewConfig::off(), 4);
        assert!(plan.edges.iter().all(|e| !e.combine && !e.hold));
        let mut ports = plan.flowlets.iter().flat_map(|f| f.ports.iter());
        assert!(ports.all(|p| !p.combine && !p.hold));
    }

    #[test]
    fn a_streaming_job_combines_per_task() {
        // An epoch's records must be out ahead of its marker: the
        // stream's combining edge folds, but holds nothing past a task.
        let mut b = JobBuilder::new("plantest-stream");
        let s = b.add_stream(
            "S",
            crate::stream::bounded_stream(2, |_, _, out: &mut Emitter| out.emit_t(0, &1u64, &1u64)),
        );
        let p = b.add_partial_reduce("P", crate::typed::sum_reducer::<u64>());
        b.connect_combined(s, p, Exchange::Hash, sum_combiner());
        let plan = compile(&Arc::new(b.build().unwrap()), SkewConfig::default(), 2);
        assert!(plan.edges[0].combine && !plan.edges[0].hold);
        assert!(plan.flowlets[0].ports[0].combine && !plan.flowlets[0].ports[0].hold);
    }

    #[test]
    fn resident_hit_serves_and_runs_no_loader_splits() {
        let cluster = Cluster::new(ClusterConfig::local(2, 2));
        let graph = || combined_graph(|b| b.resident(0, "plantest/l", 7));
        let cfg = &cluster.config().runtime;
        // Cold store: the loader runs and fills.
        let cold = ExecPlan::compile(&graph(), cfg, 2, cluster.resident());
        assert!(cold.flowlets[0].serve.is_none() && cold.flowlets[0].fill);
        let owned = |g: Arc<JobGraph>| Arc::try_unwrap(g).expect("sole owner");
        let first = cluster.run(owned(graph())).unwrap();
        assert!(first.metrics.flowlets[&0].tasks > 0);
        // Warm store: served, nothing left to fill, zero splits — and
        // the same answer.
        let warm = ExecPlan::compile(&graph(), cfg, 2, cluster.resident());
        assert!(warm.flowlets[0].serve.is_some() && !warm.flowlets[0].fill);
        assert!(!warm.edges[0].fill);
        let second = cluster.run(owned(graph())).unwrap();
        assert_eq!(second.metrics.flowlets[&0].tasks, 0);
        let sorted = |r: &crate::JobResult| {
            let mut out = r.typed_output::<u64, u64>(2);
            out.sort();
            out
        };
        assert_eq!(sorted(&second), vec![(1, 2), (2, 1)]);
        assert_eq!(sorted(&second), sorted(&first));
    }
}
