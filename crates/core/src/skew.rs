//! Adaptive skew mitigation (ROADMAP item 1, paper §5.2).
//!
//! The paper's one inversion — mapred beating HAMR 4x on skewed
//! HistogramRatings — is a hot reduce partition: every record of the
//! two hot movie keys funnels through one node's shuffle edge while
//! mapred's map-side combiner collapses them before they ship. The
//! causal profiler (PR 4) diagnosed it; this module closes the loop
//! with three composable mechanisms, each independently toggleable via
//! [`SkewConfig`] / `HAMR_SKEW` so benchjson can ablate them:
//!
//! 1. **In-node combiners** — a per-edge associative [`Combiner`]
//!    (registered with `JobBuilder::connect_combined`) pre-aggregates
//!    duplicate keys inside `TaskOutput` before bins ship, so the hot
//!    edge carries partials instead of raw records (after "Hadoop
//!    MapReduce Performance Enhancement Using In-node Combiners").
//! 2. **Dynamic hot-key splitting** — a cheap per-task key sketch at
//!    emit flags keys that cross `split_threshold`; their records
//!    scatter round-robin across *all* nodes instead of hashing to one
//!    home. Receivers fold scattered records into a per-edge
//!    [`SkewAbsorber`](crate::reduce_state::SkewAbsorber) and, once
//!    the edge completes, re-emit one merged partial per key to the
//!    key's home node — so reduce semantics (all values of a key meet
//!    on one node) are preserved and checksums are unchanged.
//! 3. **Operation-level shard rebalancing** — a planner thread watches
//!    per-(edge, home) emit tallies and, OS4M-style, migrates the
//!    whole reduce partition of an overloaded home off that node by
//!    redirecting it through the same scatter/absorb/re-emit path.
//!
//! Splitting and rebalancing both require an associative combiner on
//! the edge (otherwise scattered partials could not be merged), a
//! `Hash` exchange, and a `Reduce`/`PartialReduce` consumer; batch
//! jobs only (a stream never completes, so the re-emit barrier would
//! never fire).

use crate::config::SkewConfig;
use crate::graph::{Exchange, FlowletKind, JobGraph};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// An associative, commutative merge of two encoded values for one
/// key. The combiner contract mirrors Hadoop's: its output must be a
/// valid input for the downstream reducer, so applying it zero or more
/// times at any grouping must not change the final result.
pub trait Combiner: Send + Sync {
    /// Merge encoded values `a` and `b` for `key` into `out`
    /// (`out` arrives empty).
    fn combine(&self, key: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>);
}

impl fmt::Debug for dyn Combiner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Combiner")
    }
}

/// Per-node mitigation counters, owned by [`SkewRuntime`] and merged
/// into `NodeMetrics` when the job joins.
#[derive(Debug, Default)]
pub struct SkewNodeCounters {
    /// Hot keys this node's tasks flagged for splitting.
    pub splits_triggered: AtomicU64,
    /// Reduce partitions the planner migrated *off* this node.
    pub shards_migrated: AtomicU64,
}

/// The rebalancing plan: at most one migrated home node per edge.
/// `usize::MAX` means "not migrated". Reads are one relaxed load on
/// the emit path; writes come from the planner thread (or the
/// `forced_migrations` test hook).
#[derive(Debug)]
pub struct SkewPlan {
    migrated: Vec<AtomicUsize>,
}

impl SkewPlan {
    fn new(edges: usize) -> Self {
        SkewPlan {
            migrated: (0..edges).map(|_| AtomicUsize::new(usize::MAX)).collect(),
        }
    }

    /// Redirect `home`'s partition of `edge` through the scatter path.
    /// Returns false if the edge already has a migration (one-shot).
    pub fn migrate(&self, edge: usize, home: usize) -> bool {
        self.migrated[edge]
            .compare_exchange(usize::MAX, home, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Is `home`'s partition of `edge` migrated?
    #[inline]
    pub fn is_migrated(&self, edge: usize, home: usize) -> bool {
        self.migrated[edge].load(Ordering::Relaxed) == home
    }

    /// The migrated home of `edge`, if any.
    pub fn migrated_home(&self, edge: usize) -> Option<usize> {
        match self.migrated[edge].load(Ordering::Relaxed) {
            usize::MAX => None,
            home => Some(home),
        }
    }
}

/// Shared per-job skew state: which edges combine, which may scatter,
/// the live rebalancing plan, per-(edge, home) emit tallies feeding the
/// planner, and per-node counters.
#[derive(Debug)]
pub struct SkewRuntime {
    pub cfg: SkewConfig,
    pub nodes: usize,
    /// Per-edge combiner, for eligible edges only (Hash exchange into a
    /// Reduce/PartialReduce).
    combiners: Vec<Option<Arc<dyn Combiner>>>,
    /// Edges where in-node combining applies (`cfg.combine` on).
    combine_on: Vec<bool>,
    /// Edges where hot-key splitting / rebalancing may scatter.
    scatter_on: Vec<bool>,
    pub plan: SkewPlan,
    /// Records emitted per `[edge * nodes + home]`, the planner's load
    /// signal. Tallied locally per task and flushed at task finish.
    emitted: Vec<AtomicU64>,
    pub counters: Vec<SkewNodeCounters>,
}

impl SkewRuntime {
    /// Derive the per-edge mechanism map from the graph and config.
    pub fn new(graph: &JobGraph, cfg: SkewConfig, nodes: usize) -> Self {
        let edges = graph.edges.len();
        let mut combiners = vec![None; edges];
        let mut combine_on = vec![false; edges];
        let mut scatter_on = vec![false; edges];
        for (e, def) in graph.edges.iter().enumerate() {
            let Some(c) = graph.edge_combiners.get(e).and_then(|c| c.clone()) else {
                continue;
            };
            let aggregating = matches!(
                graph.flowlets[def.dst].kind,
                FlowletKind::Reduce(_) | FlowletKind::PartialReduce(_)
            );
            if def.exchange != Exchange::Hash || !aggregating {
                continue;
            }
            combiners[e] = Some(c);
            combine_on[e] = cfg.combine;
            // Scattering needs the completion barrier (batch only) and
            // more than one node to scatter across. Cached edges are
            // excluded entirely: the resident store replays pinned
            // frames to their recorded home partitions, so ownership
            // must stay partition-stable — no hot-key splitting, no
            // shard migration. (In-node combining is fine: fills
            // capture post-combine frames and replay identically.)
            scatter_on[e] = (cfg.split || cfg.rebalance)
                && nodes > 1
                && !graph.has_stream
                && graph.flowlets[def.src].cache.is_none();
        }
        let plan = SkewPlan::new(edges);
        let counters = (0..nodes).map(|_| SkewNodeCounters::default()).collect();
        let rt = SkewRuntime {
            cfg,
            nodes,
            combiners,
            combine_on,
            scatter_on,
            plan,
            emitted: (0..edges * nodes).map(|_| AtomicU64::new(0)).collect(),
            counters,
        };
        // Deterministic test hook: pre-migrate before any task runs.
        for &(edge, home) in &rt.cfg.forced_migrations {
            if edge < edges && home < nodes && rt.scatter_on[edge] && rt.plan.migrate(edge, home) {
                rt.counters[home]
                    .shards_migrated
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        rt
    }

    /// An inert runtime (no combiners registered / all mechanisms off).
    pub fn disabled(nodes: usize) -> Self {
        SkewRuntime {
            cfg: SkewConfig::off(),
            nodes: nodes.max(1),
            combiners: Vec::new(),
            combine_on: Vec::new(),
            scatter_on: Vec::new(),
            plan: SkewPlan::new(0),
            emitted: Vec::new(),
            counters: (0..nodes.max(1))
                .map(|_| SkewNodeCounters::default())
                .collect(),
        }
    }

    #[inline]
    pub fn combine_on(&self, edge: usize) -> bool {
        self.combine_on.get(edge).copied().unwrap_or(false)
    }

    #[inline]
    pub fn scatter_on(&self, edge: usize) -> bool {
        self.scatter_on.get(edge).copied().unwrap_or(false)
    }

    /// Does any mechanism touch any of `edges`? Lets `TaskOutput` skip
    /// all skew bookkeeping for unaffected flowlets.
    pub fn active_for(&self, edges: impl Iterator<Item = usize>) -> bool {
        let mut edges = edges;
        edges.any(|e| self.combine_on(e) || self.scatter_on(e))
    }

    pub fn combiner(&self, edge: usize) -> Option<&Arc<dyn Combiner>> {
        self.combiners.get(edge).and_then(|c| c.as_ref())
    }

    /// Edges a consumer flowlet must absorb scattered records on.
    pub fn scatter_in_edges(&self, graph: &JobGraph, flowlet: usize) -> Vec<usize> {
        graph.flowlets[flowlet]
            .in_edges
            .iter()
            .copied()
            .filter(|&e| self.scatter_on(e))
            .collect()
    }

    /// Fold one task's per-home emit tallies into the planner signal.
    pub fn tally_emitted(&self, edge: usize, home: usize, records: u64) {
        if records > 0 {
            if let Some(cell) = self.emitted.get(edge * self.nodes + home) {
                cell.fetch_add(records, Ordering::Relaxed);
            }
        }
    }

    pub fn emitted_for(&self, edge: usize, home: usize) -> u64 {
        self.emitted
            .get(edge * self.nodes + home)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Should the cluster run the rebalancing planner for this job?
    pub fn planner_enabled(&self) -> bool {
        self.cfg.rebalance && self.scatter_on.iter().any(|&s| s)
    }

    /// One planner pass: for every scatter-eligible edge without a
    /// migration yet, compare per-home emit tallies and migrate the
    /// heaviest home when it exceeds `rebalance_factor` × mean and the
    /// edge has seen at least `rebalance_min_records`. Returns the
    /// number of migrations made this pass.
    pub fn plan_step(&self) -> usize {
        if !self.cfg.rebalance {
            return 0;
        }
        let mut migrations = 0;
        for edge in 0..self.scatter_on.len() {
            if !self.scatter_on[edge] || self.plan.migrated_home(edge).is_some() {
                continue;
            }
            let loads: Vec<u64> = (0..self.nodes).map(|n| self.emitted_for(edge, n)).collect();
            let total: u64 = loads.iter().sum();
            if total < self.cfg.rebalance_min_records {
                continue;
            }
            let mean = total as f64 / self.nodes as f64;
            let (hot, &max) = loads
                .iter()
                .enumerate()
                .max_by_key(|(_, &l)| l)
                .expect("nodes > 0");
            if max as f64 > self.cfg.rebalance_factor * mean && self.plan.migrate(edge, hot) {
                self.counters[hot]
                    .shards_migrated
                    .fetch_add(1, Ordering::Relaxed);
                migrations += 1;
            }
        }
        migrations
    }
}

/// A cheap per-task top-key sketch, backed by the shared
/// [`SpaceSaving`](hamr_trace::SpaceSaving) heavy-hitter summary from
/// `hamr_trace::stats`. A key becomes *hot* the moment its guaranteed
/// in-task count — the portion of its SpaceSaving count observed since
/// insertion, which never over-counts — crosses `threshold`. While a
/// task sees at most `CAP` distinct hashes the sketch is exact and
/// behaves identically to a plain counter table; past that, evictions
/// can only delay a hot flag (under-split), never fabricate one.
///
/// One emit costs one index probe and one add; an emit that evicts
/// also pays a heap sift of O(log `CAP`). Nothing allocates: a worker
/// keeps its sketches and [`clear`](Self::clear)s them between tasks.
#[derive(Debug)]
pub struct KeySketch {
    sketch: hamr_trace::SpaceSaving,
    hot: Vec<u64>,
    threshold: u32,
}

impl KeySketch {
    pub const CAP: usize = 1024;

    pub fn new(threshold: u32) -> Self {
        KeySketch {
            sketch: hamr_trace::SpaceSaving::new(Self::CAP),
            hot: Vec::new(),
            threshold: threshold.max(1),
        }
    }

    /// Count one emission of `hash`; returns true exactly once per
    /// hash, when its guaranteed count crosses the hot threshold.
    #[inline]
    pub fn observe(&mut self, hash: u64) -> bool {
        let guaranteed = self.sketch.observe(hash, None, 1);
        if guaranteed >= self.threshold as u64 && !self.hot.contains(&hash) {
            self.hot.push(hash);
            return true;
        }
        false
    }

    #[inline]
    pub fn is_hot(&self, hash: u64) -> bool {
        // Hot sets are tiny (a handful of keys); a linear scan beats a
        // second hash lookup.
        self.hot.contains(&hash)
    }

    pub fn hot_count(&self) -> usize {
        self.hot.len()
    }

    /// Forget the finished task's stream; the next task starts from an
    /// empty sketch, as a fresh one would.
    pub fn clear(&mut self) {
        self.sketch.clear();
        self.hot.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typed::{pairs_loader, reduce_fn, sum_combiner};
    use crate::JobBuilder;

    fn combined_graph() -> JobGraph {
        let mut b = JobBuilder::new("skewtest");
        let l = b.add_loader("L", pairs_loader(Vec::<(u64, u64)>::new()));
        let m = b.add_map(
            "M",
            crate::typed::map_fn(|k: u64, v: u64, out: &mut crate::Emitter| out.emit_t(0, &k, &v)),
        );
        let r = b.add_reduce(
            "R",
            reduce_fn(|k: u64, vs: Vec<u64>, out: &mut crate::Emitter| {
                out.output_t(&k, &vs.iter().sum::<u64>());
            }),
        );
        b.connect(l, m, Exchange::Local);
        b.connect_combined(m, r, Exchange::Hash, sum_combiner());
        b.build().unwrap()
    }

    #[test]
    fn eligibility_requires_hash_into_reduce() {
        let g = combined_graph();
        let rt = SkewRuntime::new(&g, SkewConfig::all(), 4);
        // Edge 0 is Local (no combiner), edge 1 is Hash into Reduce.
        assert!(!rt.combine_on(0) && !rt.scatter_on(0));
        assert!(rt.combine_on(1) && rt.scatter_on(1));
        assert!(rt.combiner(1).is_some());
        assert!(rt.active_for([0usize, 1].into_iter()));
        assert_eq!(rt.scatter_in_edges(&g, 2), vec![1]);
    }

    #[test]
    fn single_node_never_scatters() {
        let g = combined_graph();
        let rt = SkewRuntime::new(&g, SkewConfig::all(), 1);
        assert!(rt.combine_on(1));
        assert!(!rt.scatter_on(1), "nothing to scatter across on one node");
    }

    #[test]
    fn off_config_is_inert() {
        let g = combined_graph();
        let rt = SkewRuntime::new(&g, SkewConfig::off(), 4);
        assert!(!rt.combine_on(1) && !rt.scatter_on(1));
        assert!(!rt.active_for([0usize, 1].into_iter()));
        assert!(!rt.planner_enabled());
    }

    #[test]
    fn sketch_flags_hot_key_once_at_threshold() {
        let mut s = KeySketch::new(3);
        assert!(!s.observe(7));
        assert!(!s.observe(7));
        assert!(s.observe(7), "third observation crosses the threshold");
        assert!(!s.observe(7), "only flagged once");
        assert!(s.is_hot(7));
        assert!(!s.is_hot(8));
        assert_eq!(s.hot_count(), 1);
    }

    #[test]
    fn planner_migrates_the_overloaded_home_once() {
        let g = combined_graph();
        let cfg = SkewConfig {
            rebalance: true,
            rebalance_min_records: 100,
            rebalance_factor: 2.0,
            ..SkewConfig::off()
        };
        let rt = SkewRuntime::new(&g, cfg, 4);
        // Balanced load: under the min-records gate, then under factor.
        rt.tally_emitted(1, 0, 30);
        rt.tally_emitted(1, 1, 30);
        assert_eq!(rt.plan_step(), 0, "below rebalance_min_records");
        rt.tally_emitted(1, 2, 30);
        rt.tally_emitted(1, 3, 30);
        assert_eq!(rt.plan_step(), 0, "balanced load never migrates");
        // Now overload node 2 far past factor * mean.
        rt.tally_emitted(1, 2, 10_000);
        assert_eq!(rt.plan_step(), 1);
        assert!(rt.plan.is_migrated(1, 2));
        assert_eq!(rt.plan.migrated_home(1), Some(2));
        assert_eq!(rt.counters[2].shards_migrated.load(Ordering::Relaxed), 1);
        // One-shot per edge.
        rt.tally_emitted(1, 3, 100_000);
        assert_eq!(rt.plan_step(), 0);
        assert_eq!(rt.plan.migrated_home(1), Some(2));
    }

    #[test]
    fn forced_migration_applies_at_construction() {
        let g = combined_graph();
        let cfg = SkewConfig {
            rebalance: true,
            forced_migrations: vec![(1, 3), (1, 2), (0, 1), (99, 0)],
            ..SkewConfig::off()
        };
        let rt = SkewRuntime::new(&g, cfg, 4);
        // First valid entry wins; edge 0 is ineligible, 99 out of range.
        assert_eq!(rt.plan.migrated_home(1), Some(3));
        assert_eq!(rt.plan.migrated_home(0), None);
        assert_eq!(rt.counters[3].shards_migrated.load(Ordering::Relaxed), 1);
    }
}
