//! Flowlet graph construction and validation.
//!
//! A HAMR job is a DAG of flowlets. Unlike MapReduce's fixed
//! map→reduce shape, any flowlet may connect to any other (the paper's
//! "multi-phase support"), multiple flowlets may feed one, and one may
//! feed many — which is how chains of Hadoop jobs collapse into a
//! single in-memory job.

use crate::error::GraphError;
use crate::flowlet::{Loader, MapFn, PartialReduceFn, ReduceFn, StreamSource};
use crate::outbuf::Combiner;
use crate::resident::CacheSpec;
use std::sync::Arc;

/// Index of a flowlet within its job graph.
pub type FlowletId = usize;

/// Index of an edge within its job graph.
pub type EdgeId = usize;

/// How records are routed along an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exchange {
    /// Partition by `stable_hash(key) % nodes` — each node owns a key
    /// slice (the shuffle).
    Hash,
    /// Deliver every record to every node.
    Broadcast,
    /// Stay on the producing node (no network).
    Local,
    /// Explicit partitioner: the key is a `Codec`-encoded `u64` node
    /// index; the record goes to node `key % nodes`. Used by
    /// locality-aware algorithms that route work back to the node
    /// where the data lives (paper §3.3, K-Means Alg. 1 step 4).
    KeyNode,
}

impl Exchange {
    /// The nodes an edge joins `node` to, in either direction — whom its
    /// completion and markers must reach, and whom it must hear them
    /// from: `node` alone on a `Local` edge, every node otherwise.
    pub(crate) fn peers(self, node: usize, nodes: usize) -> std::ops::Range<usize> {
        match self {
            Exchange::Local => node..node + 1,
            _ => 0..nodes,
        }
    }
}

/// A flowlet's computation, type-erased.
pub enum FlowletKind {
    Loader(Arc<dyn Loader>),
    Stream(Arc<dyn StreamSource>),
    Map(Arc<dyn MapFn>),
    Reduce(Arc<dyn ReduceFn>),
    PartialReduce(Arc<dyn PartialReduceFn>),
}

impl FlowletKind {
    /// Sources have no inputs: loaders and stream sources.
    pub fn is_source(&self) -> bool {
        matches!(self, FlowletKind::Loader(_) | FlowletKind::Stream(_))
    }

    /// Human-readable kind name for metrics and errors.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FlowletKind::Loader(_) => "loader",
            FlowletKind::Stream(_) => "stream",
            FlowletKind::Map(_) => "map",
            FlowletKind::Reduce(_) => "reduce",
            FlowletKind::PartialReduce(_) => "partial-reduce",
        }
    }
}

impl std::fmt::Debug for FlowletKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind_name())
    }
}

/// One flowlet in a built graph.
#[derive(Debug)]
pub struct FlowletDef {
    pub name: String,
    pub kind: FlowletKind,
    /// When true, `Emitter::output` records are collected into the
    /// job result for this flowlet.
    pub capture: bool,
    /// Outgoing edges in port order (port p == out_edges[p]).
    pub out_edges: Vec<EdgeId>,
    /// Incoming edges, unordered.
    pub in_edges: Vec<EdgeId>,
    /// Partition-residency annotation: pin (or reuse) this flowlet's
    /// post-shuffle frames across jobs in a session chain.
    pub cache: Option<CacheSpec>,
}

/// One edge in a built graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeDef {
    pub src: FlowletId,
    pub dst: FlowletId,
    pub exchange: Exchange,
    /// Position among `src`'s outputs (== the emitter port).
    pub src_port: usize,
}

/// Incrementally builds a [`JobGraph`].
pub struct JobBuilder {
    name: String,
    flowlets: Vec<FlowletDef>,
    edges: Vec<EdgeDef>,
    /// `(edge, combiner)` registrations from `connect_combined`.
    combiners: Vec<(EdgeId, Arc<dyn Combiner>)>,
}

impl JobBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        JobBuilder {
            name: name.into(),
            flowlets: Vec::new(),
            edges: Vec::new(),
            combiners: Vec::new(),
        }
    }

    fn add(&mut self, name: impl Into<String>, kind: FlowletKind) -> FlowletId {
        let id = self.flowlets.len();
        self.flowlets.push(FlowletDef {
            name: name.into(),
            kind,
            capture: false,
            out_edges: Vec::new(),
            in_edges: Vec::new(),
            cache: None,
        });
        id
    }

    /// Add a loader (batch source) flowlet.
    pub fn add_loader(&mut self, name: impl Into<String>, l: impl Loader + 'static) -> FlowletId {
        self.add(name, FlowletKind::Loader(Arc::new(l)))
    }

    /// Add a streaming source flowlet.
    pub fn add_stream(
        &mut self,
        name: impl Into<String>,
        s: impl StreamSource + 'static,
    ) -> FlowletId {
        self.add(name, FlowletKind::Stream(Arc::new(s)))
    }

    /// Add a map flowlet.
    pub fn add_map(&mut self, name: impl Into<String>, m: impl MapFn + 'static) -> FlowletId {
        self.add(name, FlowletKind::Map(Arc::new(m)))
    }

    /// Add a full reduce flowlet.
    pub fn add_reduce(&mut self, name: impl Into<String>, r: impl ReduceFn + 'static) -> FlowletId {
        self.add(name, FlowletKind::Reduce(Arc::new(r)))
    }

    /// Add a partial-reduce flowlet.
    pub fn add_partial_reduce(
        &mut self,
        name: impl Into<String>,
        r: impl PartialReduceFn + 'static,
    ) -> FlowletId {
        self.add(name, FlowletKind::PartialReduce(Arc::new(r)))
    }

    /// Connect `src` to `dst`. The returned value is `src`'s output
    /// port for this connection (its n-th `connect` as a source).
    pub fn connect(&mut self, src: FlowletId, dst: FlowletId, exchange: Exchange) -> usize {
        let edge_id = self.edges.len();
        let src_port = self
            .flowlets
            .get(src)
            .map(|f| f.out_edges.len())
            .unwrap_or(0);
        self.edges.push(EdgeDef {
            src,
            dst,
            exchange,
            src_port,
        });
        if let Some(f) = self.flowlets.get_mut(src) {
            f.out_edges.push(edge_id);
        }
        if let Some(f) = self.flowlets.get_mut(dst) {
            f.in_edges.push(edge_id);
        }
        src_port
    }

    /// [`connect`](Self::connect), plus an associative [`Combiner`] for
    /// the edge's values, enabling in-node combining on it (see
    /// `crate::outbuf`). The combiner must satisfy the Hadoop combiner contract: its output
    /// is valid reducer input, and merging in any grouping/order yields
    /// the same final result. `build` rejects
    /// combiners on edges that are not `Hash` exchanges into a
    /// `Reduce`/`PartialReduce`.
    pub fn connect_combined(
        &mut self,
        src: FlowletId,
        dst: FlowletId,
        exchange: Exchange,
        combiner: Arc<dyn Combiner>,
    ) -> usize {
        let port = self.connect(src, dst, exchange);
        self.combiners.push((self.edges.len() - 1, combiner));
        port
    }

    /// Declare `flowlet` (a loader) partition-resident: when the
    /// session's [`ResidentStore`](crate::ResidentStore) holds `tag`
    /// with a matching `fingerprint` and topology, the loader does not
    /// run at all — its downstream frames are served locally from the
    /// cache (no re-encode, no re-hash, no fabric ship). On a miss the
    /// loader runs normally and fills the cache for the next job in the
    /// chain. `fingerprint` keys invalidation — derive it from whatever
    /// identifies the input; a different one bypasses the cache.
    pub fn resident(&mut self, flowlet: FlowletId, tag: impl Into<String>, fingerprint: u64) {
        if let Some(f) = self.flowlets.get_mut(flowlet) {
            f.cache = Some(CacheSpec {
                tag: tag.into(),
                fingerprint,
            });
        } else {
            self.mark_unknown(flowlet);
        }
    }

    /// Remember a bad flowlet id so build() reports it.
    fn mark_unknown(&mut self, flowlet: FlowletId) {
        self.edges.push(EdgeDef {
            src: flowlet,
            dst: flowlet,
            exchange: Exchange::Local,
            src_port: usize::MAX,
        });
    }

    /// Collect `Emitter::output` records of `flowlet` into the job result.
    pub fn capture_output(&mut self, flowlet: FlowletId) {
        if let Some(f) = self.flowlets.get_mut(flowlet) {
            f.capture = true;
        } else {
            self.mark_unknown(flowlet);
        }
    }

    /// Validate and freeze the graph.
    pub fn build(self) -> Result<JobGraph, GraphError> {
        let JobBuilder {
            name,
            flowlets,
            edges,
            combiners,
        } = self;
        if flowlets.is_empty() {
            return Err(GraphError::Empty);
        }
        // Combiners only make sense on a shuffle into an aggregation:
        // anywhere else, pre-merging values would change the result.
        let mut edge_combiners: Vec<Option<Arc<dyn Combiner>>> = vec![None; edges.len()];
        for (e, c) in combiners {
            let def = &edges[e];
            let aggregating = def.dst < flowlets.len()
                && matches!(
                    flowlets[def.dst].kind,
                    FlowletKind::Reduce(_) | FlowletKind::PartialReduce(_)
                );
            if def.exchange != Exchange::Hash || !aggregating {
                return Err(GraphError::InvalidCombinerEdge {
                    src: def.src,
                    dst: def.dst,
                });
            }
            edge_combiners[e] = Some(c);
        }
        // Ids in range (including the capture_output sentinel).
        for e in &edges {
            if e.src_port == usize::MAX {
                return Err(GraphError::UnknownOutput(e.src));
            }
            if e.src >= flowlets.len() || e.dst >= flowlets.len() {
                return Err(GraphError::UnknownFlowlet(e.src.max(e.dst)));
            }
        }
        // Duplicate edges between the same ordered pair.
        let mut seen = std::collections::HashSet::new();
        for e in &edges {
            if !seen.insert((e.src, e.dst)) {
                return Err(GraphError::DuplicateEdge {
                    src: e.src,
                    dst: e.dst,
                });
            }
        }
        // Sources have no inputs; non-sources have at least one.
        for (id, f) in flowlets.iter().enumerate() {
            if f.kind.is_source() {
                if !f.in_edges.is_empty() {
                    return Err(GraphError::LoaderWithInput(id));
                }
            } else if f.in_edges.is_empty() {
                return Err(GraphError::Unreachable(id));
            }
        }
        // Residency annotations: tags must be non-empty, streams can
        // never be pinned (no completion), and serving requires a
        // loader (the serve path replaces loader splits).
        for (id, f) in flowlets.iter().enumerate() {
            let Some(spec) = &f.cache else { continue };
            if spec.tag.is_empty() {
                return Err(GraphError::InvalidCacheAnnotation {
                    flowlet: id,
                    reason: "cache tag is empty",
                });
            }
            if matches!(f.kind, FlowletKind::Stream(_)) {
                return Err(GraphError::InvalidCacheAnnotation {
                    flowlet: id,
                    reason: "stream sources cannot be cached",
                });
            }
            if !matches!(f.kind, FlowletKind::Loader(_)) {
                return Err(GraphError::InvalidCacheAnnotation {
                    flowlet: id,
                    reason: "resident() requires a loader source",
                });
            }
        }
        // Kahn topological sort (cycle check).
        let mut indegree: Vec<usize> = flowlets.iter().map(|f| f.in_edges.len()).collect();
        let mut queue: Vec<FlowletId> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut topo = Vec::with_capacity(flowlets.len());
        while let Some(id) = queue.pop() {
            topo.push(id);
            for &e in &flowlets[id].out_edges {
                let dst = edges[e].dst;
                indegree[dst] -= 1;
                if indegree[dst] == 0 {
                    queue.push(dst);
                }
            }
        }
        if topo.len() != flowlets.len() {
            return Err(GraphError::Cycle);
        }
        // Streaming jobs cannot contain a full Reduce downstream of a
        // stream source (it would wait forever).
        let has_stream = flowlets
            .iter()
            .any(|f| matches!(f.kind, FlowletKind::Stream(_)));
        if has_stream {
            let mut reach_stream = vec![false; flowlets.len()];
            for (id, f) in flowlets.iter().enumerate() {
                if matches!(f.kind, FlowletKind::Stream(_)) {
                    reach_stream[id] = true;
                }
            }
            for &id in &topo {
                if reach_stream[id] {
                    for &e in &flowlets[id].out_edges {
                        reach_stream[edges[e].dst] = true;
                    }
                }
            }
            for (id, f) in flowlets.iter().enumerate() {
                if reach_stream[id] && matches!(f.kind, FlowletKind::Reduce(_)) {
                    return Err(GraphError::ReduceOnStream(id));
                }
            }
        }
        Ok(JobGraph {
            name,
            flowlets,
            edges,
            edge_combiners,
            topo,
            has_stream,
        })
    }
}

/// A validated, immutable flowlet DAG ready to run.
#[derive(Debug)]
pub struct JobGraph {
    pub name: String,
    pub flowlets: Vec<FlowletDef>,
    pub edges: Vec<EdgeDef>,
    /// Per-edge combiner registered via
    /// [`JobBuilder::connect_combined`], indexed by edge id.
    pub edge_combiners: Vec<Option<Arc<dyn Combiner>>>,
    /// Topological order of flowlet ids.
    pub topo: Vec<FlowletId>,
    /// True when the graph contains a stream source (streaming job).
    pub has_stream: bool,
}

impl JobGraph {
    /// Render the DAG in Graphviz DOT format (for debugging and docs).
    ///
    /// Nodes are labelled `name\n(kind)`; edges carry their exchange.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name.replace('"', "'"));
        let _ = writeln!(out, "  rankdir=LR;");
        for (id, f) in self.flowlets.iter().enumerate() {
            let shape = match f.kind {
                FlowletKind::Loader(_) | FlowletKind::Stream(_) => "invhouse",
                FlowletKind::Reduce(_) => "box",
                FlowletKind::PartialReduce(_) => "box3d",
                FlowletKind::Map(_) => "ellipse",
            };
            let capture = if f.capture { "\\n[captured]" } else { "" };
            let cache = match &f.cache {
                Some(spec) => format!("\\n[resident {}]", spec.tag.replace('"', "'")),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  f{id} [label=\"{}\\n({}){}{}\" shape={shape}];",
                f.name.replace('"', "'"),
                f.kind.kind_name(),
                capture,
                cache
            );
        }
        for e in &self.edges {
            let style = match e.exchange {
                Exchange::Hash => "label=\"hash\"",
                Exchange::Broadcast => "label=\"broadcast\" style=dashed",
                Exchange::Local => "label=\"local\" style=dotted",
                Exchange::KeyNode => "label=\"key-node\"",
            };
            let _ = writeln!(out, "  f{} -> f{} [{style}];", e.src, e.dst);
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// (edge id, exchange) pairs for a flowlet's outputs, port order.
    pub fn out_ports(&self, flowlet: FlowletId) -> Vec<(EdgeId, Exchange)> {
        self.flowlets[flowlet]
            .out_edges
            .iter()
            .map(|&e| (e, self.edges[e].exchange))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowlet::{Emitter, TaskContext};

    struct NullLoader;
    impl Loader for NullLoader {
        fn split_count(&self, _ctx: &TaskContext) -> usize {
            0
        }
        fn load(&self, _ctx: &TaskContext, _index: usize, _out: &mut Emitter) {}
    }

    struct IdMap;
    impl MapFn for IdMap {
        fn map(&self, _ctx: &TaskContext, _k: &[u8], _v: &[u8], _out: &mut Emitter) {}
    }

    struct NullReduce;
    impl ReduceFn for NullReduce {
        fn reduce(
            &self,
            _ctx: &TaskContext,
            _key: &[u8],
            _values: &mut dyn Iterator<Item = &[u8]>,
            _out: &mut Emitter,
        ) {
        }
    }

    struct NullStream;
    impl StreamSource for NullStream {
        fn epoch(&self, _ctx: &TaskContext, _epoch: u64, _out: &mut Emitter) -> bool {
            false
        }
    }

    fn two_stage() -> JobBuilder {
        let mut b = JobBuilder::new("t");
        let l = b.add_loader("l", NullLoader);
        let m = b.add_map("m", IdMap);
        b.connect(l, m, Exchange::Hash);
        b
    }

    #[test]
    fn valid_graph_builds() {
        let g = two_stage().build().unwrap();
        assert_eq!((g.flowlets.len(), g.edges.len()), (2, 1));
        assert_eq!(g.topo, vec![0, 1]);
        assert!(!g.has_stream);
        assert_eq!(g.out_ports(0), vec![(0, Exchange::Hash)]);
        assert!(g.out_ports(1).is_empty());
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(JobBuilder::new("e").build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn cycle_rejected() {
        let mut b = JobBuilder::new("c");
        let l = b.add_loader("l", NullLoader);
        let m1 = b.add_map("m1", IdMap);
        let m2 = b.add_map("m2", IdMap);
        b.connect(l, m1, Exchange::Local);
        b.connect(m1, m2, Exchange::Local);
        b.connect(m2, m1, Exchange::Local);
        assert_eq!(b.build().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn orphan_map_rejected() {
        let mut b = JobBuilder::new("o");
        b.add_loader("l", NullLoader);
        b.add_map("m", IdMap);
        assert_eq!(b.build().unwrap_err(), GraphError::Unreachable(1));
    }

    #[test]
    fn loader_with_input_rejected() {
        let mut b = JobBuilder::new("li");
        let l1 = b.add_loader("l1", NullLoader);
        let l2 = b.add_loader("l2", NullLoader);
        b.connect(l1, l2, Exchange::Local);
        assert_eq!(b.build().unwrap_err(), GraphError::LoaderWithInput(l2));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = two_stage();
        b.connect(0, 1, Exchange::Local);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DuplicateEdge { src: 0, dst: 1 }
        );
    }

    #[test]
    fn unknown_flowlet_in_edge_rejected() {
        let mut b = JobBuilder::new("u");
        let l = b.add_loader("l", NullLoader);
        b.connect(l, 99, Exchange::Local);
        assert_eq!(b.build().unwrap_err(), GraphError::UnknownFlowlet(99));
    }

    #[test]
    fn reduce_downstream_of_stream_rejected() {
        let mut b = JobBuilder::new("s");
        let s = b.add_stream("s", NullStream);
        let m = b.add_map("m", IdMap);
        let r = b.add_reduce("r", NullReduce);
        b.connect(s, m, Exchange::Local);
        b.connect(m, r, Exchange::Hash);
        assert_eq!(b.build().unwrap_err(), GraphError::ReduceOnStream(r));
    }

    #[test]
    fn reduce_beside_stream_allowed() {
        // A reduce fed only by a batch loader coexists with a stream
        // elsewhere in the graph.
        let mut b = JobBuilder::new("s2");
        let s = b.add_stream("s", NullStream);
        let m = b.add_map("m", IdMap);
        let l = b.add_loader("l", NullLoader);
        let r = b.add_reduce("r", NullReduce);
        b.connect(s, m, Exchange::Local);
        b.connect(l, r, Exchange::Hash);
        let g = b.build().unwrap();
        assert!(g.has_stream);
    }

    #[test]
    fn capture_unknown_output_rejected() {
        let mut b = two_stage();
        b.capture_output(42);
        assert_eq!(b.build().unwrap_err(), GraphError::UnknownOutput(42));
    }

    #[test]
    fn ports_assigned_in_connect_order() {
        let mut b = JobBuilder::new("p");
        let l = b.add_loader("l", NullLoader);
        let m1 = b.add_map("m1", IdMap);
        let m2 = b.add_map("m2", IdMap);
        let p0 = b.connect(l, m1, Exchange::Local);
        let p1 = b.connect(l, m2, Exchange::Broadcast);
        assert_eq!((p0, p1), (0, 1));
        let g = b.build().unwrap();
        assert_eq!(
            g.out_ports(l),
            vec![(0, Exchange::Local), (1, Exchange::Broadcast)]
        );
    }

    #[test]
    fn dot_export_mentions_every_flowlet_and_edge() {
        let mut b = JobBuilder::new("viz");
        let l = b.add_loader("src", NullLoader);
        let m = b.add_map("xform", IdMap);
        let r = b.add_reduce("agg", NullReduce);
        b.connect(l, m, Exchange::Local);
        b.connect(m, r, Exchange::Hash);
        b.capture_output(r);
        let dot = b.build().unwrap().to_dot();
        assert!(dot.starts_with("digraph"));
        for needle in [
            "src",
            "xform",
            "agg",
            "f0 -> f1",
            "f1 -> f2",
            "hash",
            "local",
            "[captured]",
        ] {
            assert!(dot.contains(needle), "missing {needle} in:\n{dot}");
        }
    }

    fn add_combiner() -> Arc<dyn Combiner> {
        crate::typed::combine_fn(|a: u64, b: u64| a + b)
    }

    #[test]
    fn combiner_on_hash_reduce_accepted() {
        let mut b = JobBuilder::new("cb");
        let l = b.add_loader("l", NullLoader);
        let m = b.add_map("m", IdMap);
        let r = b.add_reduce("r", NullReduce);
        b.connect(l, m, Exchange::Local);
        let port = b.connect_combined(m, r, Exchange::Hash, add_combiner());
        assert_eq!(port, 0);
        let g = b.build().unwrap();
        assert!(g.edge_combiners[0].is_none());
        assert!(g.edge_combiners[1].is_some());
    }

    #[test]
    fn combiner_on_local_edge_rejected() {
        let mut b = JobBuilder::new("cb-local");
        let l = b.add_loader("l", NullLoader);
        let r = b.add_reduce("r", NullReduce);
        b.connect_combined(l, r, Exchange::Local, add_combiner());
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::InvalidCombinerEdge { src: l, dst: r }
        );
    }

    #[test]
    fn combiner_into_map_rejected() {
        let mut b = JobBuilder::new("cb-map");
        let l = b.add_loader("l", NullLoader);
        let m = b.add_map("m", IdMap);
        b.connect_combined(l, m, Exchange::Hash, add_combiner());
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::InvalidCombinerEdge { src: l, dst: m }
        );
    }

    #[test]
    fn cache_annotations_build_and_render() {
        let mut b = two_stage();
        b.resident(0, "t/adj", 42);
        let g = b.build().unwrap();
        let spec = g.flowlets[0].cache.as_ref().unwrap();
        assert_eq!(spec.tag, "t/adj");
        assert_eq!(spec.fingerprint, 42);
        let dot = g.to_dot();
        assert!(dot.contains("[resident t/adj]"), "{dot}");
    }

    #[test]
    fn resident_on_non_loader_rejected() {
        let mut b = two_stage();
        b.resident(1, "t", 0);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::InvalidCacheAnnotation {
                flowlet: 1,
                reason: "resident() requires a loader source",
            }
        );
    }

    #[test]
    fn empty_cache_tag_rejected() {
        let mut b = two_stage();
        b.resident(0, "", 0);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::InvalidCacheAnnotation {
                flowlet: 0,
                reason: "cache tag is empty",
            }
        );
    }

    #[test]
    fn cached_stream_rejected() {
        let mut b = JobBuilder::new("cs");
        let s = b.add_stream("s", NullStream);
        let m = b.add_map("m", IdMap);
        b.connect(s, m, Exchange::Local);
        b.resident(s, "t", 0);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::InvalidCacheAnnotation {
                flowlet: 0,
                reason: "stream sources cannot be cached",
            }
        );
    }

    #[test]
    fn cache_on_unknown_flowlet_rejected() {
        let mut b = two_stage();
        b.resident(99, "t", 0);
        assert_eq!(b.build().unwrap_err(), GraphError::UnknownOutput(99));
    }

    #[test]
    fn diamond_topology_sorts() {
        let mut b = JobBuilder::new("d");
        let l = b.add_loader("l", NullLoader);
        let m1 = b.add_map("m1", IdMap);
        let m2 = b.add_map("m2", IdMap);
        let r = b.add_reduce("r", NullReduce);
        b.connect(l, m1, Exchange::Local);
        b.connect(l, m2, Exchange::Local);
        b.connect(m1, r, Exchange::Hash);
        b.connect(m2, r, Exchange::Hash);
        let g = b.build().unwrap();
        let pos = |id: FlowletId| g.topo.iter().position(|&x| x == id).unwrap();
        assert!(pos(l) < pos(m1));
        assert!(pos(l) < pos(m2));
        assert!(pos(m1) < pos(r));
        assert!(pos(m2) < pos(r));
    }
}
