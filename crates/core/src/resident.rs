//! Partition-resident frame cache — M3R-style cross-iteration reuse.
//!
//! Iterative workloads run one job per iteration, and before this
//! layer every iteration re-loaded, re-encoded, re-hashed, and
//! re-shipped partitions that never change (PageRank's adjacency,
//! KMeans' points). The [`ResidentStore`] lets a job chain pin the
//! post-shuffle [`Frame`]s of an invariant source under a tag: the
//! first job *fills* the cache on its ordinary emit path, and later
//! jobs whose source carries a matching `resident(tag)` annotation are
//! *served* refcounted frame clones straight into the consumer's
//! queue — no re-encode, no re-hash, no fabric ship.
//!
//! Ownership is partition-stable: an entry remembers the node count it
//! was captured under and only serves an identical topology, and the
//! execution plan never scatters a cached edge (see
//! `ExecPlan::compile`, which also decides — once per job, for every
//! node — what is served and what fills). Invalidation is keyed by an
//! input **fingerprint** — callers hash whatever identifies the input
//! (DFS block layout, a parameter epoch) and a mismatch silently
//! bypasses the cache and recomputes.
//!
//! The store holds what it is given until it is invalidated, refilled
//! or cleared: M3R keeps a job chain's working set in memory because
//! it fits there, and so does this cache. A job's `resident(..)`
//! annotation is the only switch: a job without one neither serves nor
//! fills. Its counters are registry series, read back by
//! [`ResidentStore::stats`].

use hamr_codec::Frame;
use hamr_trace::{Counter, Gauge, Labels, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::HashMap;

/// A loader's cache annotation (`JobBuilder::resident`): serve this
/// source's post-shuffle frames from the store when `tag` and
/// `fingerprint` hit, fill it on a miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSpec {
    pub tag: String,
    pub fingerprint: u64,
}

/// One pinned partition set: `ports[port][dst_node]` holds the frames
/// that crossed edge `out_edges[port]` into `dst_node`'s partition.
#[derive(Debug)]
struct Entry {
    fingerprint: u64,
    nodes: usize,
    ports: Vec<Vec<Vec<Frame>>>,
    /// Total payload bytes across all frames.
    bytes: u64,
    /// Total records across all frames.
    records: u64,
}

/// A served cache hit: frame clones ready for local injection, plus
/// the byte/record totals the caller reports as savings.
#[derive(Debug, Clone)]
pub struct ResidentHit {
    /// `ports[port][dst_node]` — refcounted clones of the pinned frames.
    pub ports: Vec<Vec<Vec<Frame>>>,
    pub bytes: u64,
    pub records: u64,
}

/// Counter snapshot for introspection (`hamr top`, tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentStats {
    pub hits: u64,
    pub misses: u64,
    pub bytes_saved: u64,
    pub resident_bytes: u64,
    pub entries: u64,
}

/// The cross-job frame cache owned by a `Cluster` (one per cluster;
/// every job the cluster runs shares it).
pub struct ResidentStore {
    entries: Mutex<HashMap<String, Entry>>,
    hits: Counter,
    misses: Counter,
    bytes_saved: Counter,
    resident_bytes: Gauge,
}

impl std::fmt::Debug for ResidentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentStore")
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResidentStore {
    /// A store counting into `registry`'s `hamr_cache_*` series, so a
    /// chain's jobs accumulate into one set.
    pub fn new(registry: &MetricsRegistry) -> Self {
        let labels = || Labels::new().engine("hamr");
        ResidentStore {
            entries: Mutex::new(HashMap::new()),
            hits: registry.counter("hamr_cache_hits_total", labels()),
            misses: registry.counter("hamr_cache_misses_total", labels()),
            bytes_saved: registry.counter("hamr_cache_bytes_saved_total", labels()),
            resident_bytes: registry.gauge("hamr_cache_resident_bytes", labels()),
        }
    }

    pub fn stats(&self) -> ResidentStats {
        ResidentStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            bytes_saved: self.bytes_saved.get(),
            resident_bytes: self.resident_bytes.get() as u64,
            entries: self.entries.lock().len() as u64,
        }
    }

    /// Pin a partition set under `tag`, replacing any prior entry.
    /// `ports[port][dst]` must be indexed `[out_edges order][node]`.
    pub fn insert(&self, tag: &str, fingerprint: u64, nodes: usize, ports: Vec<Vec<Vec<Frame>>>) {
        let bytes: u64 = ports
            .iter()
            .flatten()
            .flatten()
            .map(|f| f.payload_bytes() as u64)
            .sum();
        let records: u64 = ports
            .iter()
            .flatten()
            .flatten()
            .map(|f| f.entries() as u64)
            .sum();
        let mut entries = self.entries.lock();
        let entry = Entry {
            fingerprint,
            nodes,
            ports,
            bytes,
            records,
        };
        if let Some(old) = entries.insert(tag.to_string(), entry) {
            self.resident_bytes.sub(old.bytes as i64);
        }
        self.resident_bytes.add(bytes as i64);
    }

    /// Serve `tag` if it matches `fingerprint`, the node count, and the
    /// expected port count. A stale fingerprint or topology drops the
    /// entry (invalidation).
    pub fn lookup(
        &self,
        tag: &str,
        fingerprint: u64,
        nodes: usize,
        port_count: usize,
    ) -> Option<ResidentHit> {
        let mut entries = self.entries.lock();
        let hit = match entries.get(tag) {
            Some(e)
                if e.fingerprint == fingerprint
                    && e.nodes == nodes
                    && e.ports.len() == port_count =>
            {
                ResidentHit {
                    ports: e.ports.clone(),
                    bytes: e.bytes,
                    records: e.records,
                }
            }
            _ => {
                if let Some(stale) = entries.remove(tag) {
                    self.resident_bytes.sub(stale.bytes as i64);
                }
                self.misses.inc();
                return None;
            }
        };
        self.hits.inc();
        self.bytes_saved.add(hit.bytes);
        Some(hit)
    }

    /// Drop every tag starting with `prefix` (namespaced reset).
    /// Returns the number of entries dropped.
    pub fn invalidate_prefix(&self, prefix: &str) -> usize {
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|tag, e| {
            let keep = !tag.starts_with(prefix);
            if !keep {
                self.resident_bytes.sub(e.bytes as i64);
            }
            keep
        });
        before - entries.len()
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.invalidate_prefix("");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_codec::{stable_hash, FrameBuilder};

    fn frame(pairs: &[(&str, u64)]) -> Frame {
        let mut b = FrameBuilder::new();
        for (k, v) in pairs {
            b.push(stable_hash(k.as_bytes()), k.as_bytes(), &v.to_le_bytes());
        }
        b.freeze()
    }

    fn one_port(frames: Vec<Frame>) -> Vec<Vec<Vec<Frame>>> {
        vec![vec![frames]]
    }

    fn store() -> ResidentStore {
        ResidentStore::new(&MetricsRegistry::new())
    }

    #[test]
    fn insert_then_lookup_hits() {
        let store = store();
        let f = frame(&[("a", 1), ("b", 2)]);
        let bytes = f.payload_bytes() as u64;
        store.insert("t", 7, 1, one_port(vec![f]));
        let hit = store.lookup("t", 7, 1, 1).expect("hit");
        assert_eq!(hit.records, 2);
        assert_eq!(hit.bytes, bytes);
        assert_eq!(hit.ports.len(), 1);
        assert_eq!(hit.ports[0][0][0].entries(), 2);
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
        assert_eq!(s.bytes_saved, bytes);
        assert_eq!(s.resident_bytes, bytes);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_take_the_store_down() {
        let store = store();
        store.insert("t", 7, 1, one_port(vec![frame(&[("a", 1)])]));
        let died = std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = store.entries.lock();
                panic!("a store invariant broke mid-job");
            });
            holder.join().is_err()
        });
        assert!(died);
        // The next job of the same cluster still gets its hit.
        assert!(store.lookup("t", 7, 1, 1).is_some());
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn fingerprint_mismatch_invalidates() {
        let store = store();
        store.insert("t", 7, 1, one_port(vec![frame(&[("a", 1)])]));
        assert!(store.lookup("t", 8, 1, 1).is_none());
        // The stale entry is gone even for the original fingerprint.
        assert!(store.lookup("t", 7, 1, 1).is_none());
        assert_eq!(store.stats().misses, 2);
        assert_eq!(store.stats().resident_bytes, 0);
    }

    #[test]
    fn topology_mismatch_invalidates() {
        let store = store();
        store.insert("t", 7, 2, vec![vec![vec![], vec![]]]);
        assert!(store.lookup("t", 7, 4, 1).is_none(), "node count changed");
        store.insert("u", 7, 2, vec![vec![vec![], vec![]]]);
        assert!(store.lookup("u", 7, 2, 2).is_none(), "port count changed");
    }

    #[test]
    fn invalidate_prefix_scopes_by_namespace() {
        let store = store();
        store.insert("pr/adj", 1, 1, one_port(vec![frame(&[("a", 1)])]));
        store.insert("pr/r", 1, 1, one_port(vec![frame(&[("b", 1)])]));
        store.insert("km/pts", 1, 1, one_port(vec![frame(&[("c", 1)])]));
        assert_eq!(store.invalidate_prefix("pr/"), 2);
        assert!(store.lookup("pr/adj", 1, 1, 1).is_none());
        assert!(store.lookup("km/pts", 1, 1, 1).is_some());
        assert_eq!(store.invalidate_prefix("km/pts"), 1);
        assert_eq!(store.stats().resident_bytes, 0);
    }

    #[test]
    fn registry_binding_accumulates() {
        let registry = MetricsRegistry::new();
        let store = ResidentStore::new(&registry);
        let f = frame(&[("a", 1)]);
        let bytes = f.payload_bytes() as u64;
        store.insert("t", 7, 1, one_port(vec![f]));
        store.lookup("t", 7, 1, 1).unwrap();
        store.lookup("missing", 0, 1, 1);
        let snap = registry.snapshot();
        let eng = Labels::new().engine("hamr");
        use hamr_trace::SampleValue;
        assert!(matches!(
            snap.get("hamr_cache_hits_total", &eng),
            Some(SampleValue::Counter(1))
        ));
        assert!(matches!(
            snap.get("hamr_cache_misses_total", &eng),
            Some(SampleValue::Counter(1))
        ));
        match snap.get("hamr_cache_bytes_saved_total", &eng) {
            Some(SampleValue::Counter(v)) => assert_eq!(*v, bytes),
            other => panic!("expected counter, got {other:?}"),
        }
        match snap.get("hamr_cache_resident_bytes", &eng) {
            Some(SampleValue::Gauge(v)) => assert_eq!(*v, bytes as i64),
            other => panic!("expected gauge, got {other:?}"),
        }
    }
}
