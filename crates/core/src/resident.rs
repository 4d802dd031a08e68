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
//! A byte budget (`HAMR_RESIDENT_BUDGET`, or [`ResidentStore::set_budget`])
//! bounds memory: least-recently-used entries spill to `simdisk` and
//! are transparently reloaded (and re-validated by `Frame::parse`) on
//! their next hit.

use hamr_codec::Frame;
use hamr_simdisk::Disk;
use hamr_trace::{env_or_panic, Counter, Gauge, Labels, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
    /// Port count recorded at insert — `ports.len()` is unusable for
    /// the topology check because spilling clears `ports`.
    port_count: usize,
    ports: Vec<Vec<Vec<Frame>>>,
    /// Total payload bytes across all frames.
    bytes: u64,
    /// Total records across all frames.
    records: u64,
    /// LRU clock stamp.
    last_used: u64,
    /// When spilled, frames are dropped and this names the simdisk
    /// file holding the serialized entry.
    spill_file: Option<String>,
}

impl Entry {
    fn is_spilled(&self) -> bool {
        self.spill_file.is_some()
    }
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
    pub evictions: u64,
    pub bytes_saved: u64,
    pub resident_bytes: u64,
    pub entries: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    clock: u64,
    spill: Option<Disk>,
    spill_seq: u64,
    bound: Option<BoundSeries>,
}

/// Registry series the store bumps directly, bound once per cluster so
/// repeated jobs in a chain accumulate without re-publishing.
struct BoundSeries {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    bytes_saved: Counter,
    resident_bytes: Gauge,
}

/// The cross-job frame cache owned by a `Cluster` (one per cluster;
/// jobs in a `Session` chain share it).
pub struct ResidentStore {
    inner: Mutex<Inner>,
    enabled: AtomicBool,
    /// Byte budget; 0 = unlimited.
    budget: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes_saved: AtomicU64,
    resident_bytes: AtomicU64,
}

impl std::fmt::Debug for ResidentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ResidentStore")
            .field("enabled", &self.enabled())
            .field("budget", &self.budget.load(Ordering::Relaxed))
            .field("stats", &s)
            .finish()
    }
}

impl Default for ResidentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ResidentStore {
    /// A store configured from the environment: `HAMR_RESIDENT=off`
    /// disables it, `HAMR_RESIDENT_BUDGET=<bytes>` bounds it.
    pub fn new() -> Self {
        let enabled = env_or_panic("HAMR_RESIDENT", true, parse_enabled);
        let budget = env_or_panic("HAMR_RESIDENT_BUDGET", 0, parse_budget);
        ResidentStore {
            inner: Mutex::new(Inner::default()),
            enabled: AtomicBool::new(enabled),
            budget: AtomicU64::new(budget),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_saved: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
        }
    }

    /// Attach the simdisk used as the eviction spill target.
    pub fn set_spill(&self, disk: Disk) {
        self.inner.lock().spill = Some(disk);
    }

    /// Enable or disable serving/filling (runtime ablation toggle).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Set the resident byte budget (0 = unlimited) and enforce it.
    pub fn set_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        self.enforce_budget(&mut inner, None);
    }

    /// Bind the `hamr_cache_*` series so chain runs accumulate into the
    /// cluster registry. Safe to call repeatedly (rebinds).
    pub fn bind_registry(&self, registry: &MetricsRegistry, engine: &str) {
        let labels = || Labels::new().engine(engine);
        let bound = BoundSeries {
            hits: registry.counter("hamr_cache_hits_total", labels()),
            misses: registry.counter("hamr_cache_misses_total", labels()),
            evictions: registry.counter("hamr_cache_evictions_total", labels()),
            bytes_saved: registry.counter("hamr_cache_bytes_saved_total", labels()),
            resident_bytes: registry.gauge("hamr_cache_resident_bytes", labels()),
        };
        bound
            .resident_bytes
            .set(self.resident_bytes.load(Ordering::Relaxed) as i64);
        self.inner.lock().bound = Some(bound);
    }

    pub fn stats(&self) -> ResidentStats {
        ResidentStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            entries: self.inner.lock().entries.len() as u64,
        }
    }

    fn set_resident_bytes(&self, inner: &Inner, v: u64) {
        self.resident_bytes.store(v, Ordering::Relaxed);
        if let Some(b) = &inner.bound {
            b.resident_bytes.set(v as i64);
        }
    }

    fn count_miss(&self, inner: &Inner) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(b) = &inner.bound {
            b.misses.inc();
        }
    }

    /// Pin a partition set under `tag`, replacing any prior entry.
    /// `ports[port][dst]` must be indexed `[out_edges order][node]`.
    /// No-op while the store is disabled.
    pub fn insert(&self, tag: &str, fingerprint: u64, nodes: usize, ports: Vec<Vec<Vec<Frame>>>) {
        if !self.enabled() {
            return;
        }
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
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old) = inner.entries.remove(tag) {
            self.drop_entry(&mut inner, old);
        }
        inner.entries.insert(
            tag.to_string(),
            Entry {
                fingerprint,
                nodes,
                port_count: ports.len(),
                ports,
                bytes,
                records,
                last_used: stamp,
                spill_file: None,
            },
        );
        let total = self.resident_bytes.load(Ordering::Relaxed) + bytes;
        self.set_resident_bytes(&inner, total);
        self.enforce_budget(&mut inner, Some(tag));
    }

    /// Serve `tag` if it matches `fingerprint`, the node count, and the
    /// expected port count. A stale fingerprint or topology drops the
    /// entry (invalidation); a spilled entry is reloaded from disk.
    pub fn lookup(
        &self,
        tag: &str,
        fingerprint: u64,
        nodes: usize,
        port_count: usize,
    ) -> Option<ResidentHit> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        let stale = match inner.entries.get(tag) {
            None => {
                self.count_miss(&inner);
                return None;
            }
            Some(e) => {
                e.fingerprint != fingerprint || e.nodes != nodes || e.port_count != port_count
            }
        };
        if stale {
            let old = inner.entries.remove(tag).expect("checked above");
            self.drop_entry(&mut inner, old);
            self.count_miss(&inner);
            return None;
        }
        if inner.entries.get(tag).expect("checked").is_spilled()
            && !self.reload_spilled(&mut inner, tag)
        {
            let old = inner.entries.remove(tag).expect("checked");
            self.drop_entry(&mut inner, old);
            self.count_miss(&inner);
            return None;
        }
        let entry = inner.entries.get_mut(tag).expect("checked");
        entry.last_used = stamp;
        let hit = ResidentHit {
            ports: entry.ports.clone(),
            bytes: entry.bytes,
            records: entry.records,
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.bytes_saved.fetch_add(hit.bytes, Ordering::Relaxed);
        if let Some(b) = &inner.bound {
            b.hits.inc();
            b.bytes_saved.add(hit.bytes);
        }
        // The reload may have pushed residency past the budget.
        self.enforce_budget(&mut inner, Some(tag));
        Some(hit)
    }

    /// Drop one tag. Returns true when an entry existed.
    pub fn invalidate(&self, tag: &str) -> bool {
        let mut inner = self.inner.lock();
        match inner.entries.remove(tag) {
            Some(e) => {
                self.drop_entry(&mut inner, e);
                true
            }
            None => false,
        }
    }

    /// Drop every tag starting with `prefix` (namespaced reset).
    /// Returns the number of entries dropped.
    pub fn invalidate_prefix(&self, prefix: &str) -> usize {
        let mut inner = self.inner.lock();
        let tags: Vec<String> = inner
            .entries
            .keys()
            .filter(|t| t.starts_with(prefix))
            .cloned()
            .collect();
        for t in &tags {
            if let Some(e) = inner.entries.remove(t) {
                self.drop_entry(&mut inner, e);
            }
        }
        tags.len()
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.invalidate_prefix("");
    }

    fn drop_entry(&self, inner: &mut Inner, e: Entry) {
        if let Some(file) = &e.spill_file {
            if let Some(disk) = &inner.spill {
                disk.delete(file);
            }
        } else {
            let total = self
                .resident_bytes
                .load(Ordering::Relaxed)
                .saturating_sub(e.bytes);
            self.set_resident_bytes(inner, total);
        }
    }

    /// Evict (spill or drop) LRU entries until residency fits the
    /// budget. `keep` names a tag exempt from eviction this pass (the
    /// one just inserted or served — evicting it would defeat the hit).
    fn enforce_budget(&self, inner: &mut Inner, keep: Option<&str>) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        while self.resident_bytes.load(Ordering::Relaxed) > budget {
            // Prefer any other resident entry; when the kept tag is the
            // only thing left over budget, it must go too (spilled, so
            // the next lookup still reloads it).
            let victim = inner
                .entries
                .iter()
                .filter(|(t, e)| !e.is_spilled() && keep != Some(t.as_str()))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(t, _)| t.clone())
                .or_else(|| {
                    inner
                        .entries
                        .iter()
                        .filter(|(_, e)| !e.is_spilled())
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(t, _)| t.clone())
                });
            let Some(tag) = victim else { break };
            self.spill_entry(inner, &tag);
        }
    }

    /// Serialize an entry's frames to simdisk and drop the in-memory
    /// copy (or drop outright when no spill disk is attached).
    fn spill_entry(&self, inner: &mut Inner, tag: &str) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        if let Some(b) = &inner.bound {
            b.evictions.inc();
        }
        let has_disk = inner.spill.is_some();
        if !has_disk {
            if let Some(e) = inner.entries.remove(tag) {
                self.drop_entry(inner, e);
            }
            return;
        }
        inner.spill_seq += 1;
        let file = format!("resident/spill-{}", inner.spill_seq);
        let entry = inner.entries.get_mut(tag).expect("victim exists");
        let mut buf = Vec::with_capacity(entry.bytes as usize + 64);
        buf.extend_from_slice(&(entry.ports.len() as u32).to_le_bytes());
        for port in &entry.ports {
            buf.extend_from_slice(&(port.len() as u32).to_le_bytes());
            for dst in port {
                buf.extend_from_slice(&(dst.len() as u32).to_le_bytes());
                for frame in dst {
                    let data = frame.data();
                    buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
                    buf.extend_from_slice(data);
                }
            }
        }
        let freed = entry.bytes;
        let disk = inner.spill.as_ref().expect("checked");
        if disk.write_all(&file, &buf).is_ok() {
            let entry = inner.entries.get_mut(tag).expect("victim exists");
            entry.ports = Vec::new();
            entry.spill_file = Some(file);
        } else if let Some(e) = inner.entries.remove(tag) {
            self.drop_entry(inner, e);
            return;
        }
        let total = self
            .resident_bytes
            .load(Ordering::Relaxed)
            .saturating_sub(freed);
        self.set_resident_bytes(inner, total);
    }

    /// Read a spilled entry back and re-validate every frame. Returns
    /// false (caller drops the entry) on any disk or parse error.
    fn reload_spilled(&self, inner: &mut Inner, tag: &str) -> bool {
        let Some(file) = inner.entries.get(tag).and_then(|e| e.spill_file.clone()) else {
            return false;
        };
        let Some(disk) = inner.spill.clone() else {
            return false;
        };
        let Ok(data) = disk.read_all(&file) else {
            return false;
        };
        let Some(ports) = parse_spilled(&data) else {
            return false;
        };
        disk.delete(&file);
        let entry = inner.entries.get_mut(tag).expect("caller checked");
        entry.ports = ports;
        entry.spill_file = None;
        let total = self.resident_bytes.load(Ordering::Relaxed) + entry.bytes;
        self.set_resident_bytes(inner, total);
        true
    }
}

/// `HAMR_RESIDENT=on|off` (also `1`/`true`, `0`/`false`).
fn parse_enabled(s: &str) -> Result<bool, String> {
    match s {
        "on" | "1" | "true" => Ok(true),
        "off" | "0" | "false" => Ok(false),
        _ => Err("on|off".to_string()),
    }
}

/// `HAMR_RESIDENT_BUDGET=<bytes>`, a plain integer; 0 = unlimited. A
/// value like `64MB` must not read as 0.
fn parse_budget(s: &str) -> Result<u64, String> {
    s.trim()
        .parse()
        .map_err(|_| "<bytes> (an integer, 0 = unlimited)".to_string())
}

/// Decode the spill format written by `spill_entry`:
/// `[nports][nports × [ndst][ndst × [nframes][nframes × [len][bytes]]]]`.
fn parse_spilled(buf: &[u8]) -> Option<Vec<Vec<Vec<Frame>>>> {
    let mut off = 0usize;
    fn read_u32(buf: &[u8], off: &mut usize) -> Option<usize> {
        let v = buf.get(*off..*off + 4)?;
        *off += 4;
        Some(u32::from_le_bytes(v.try_into().ok()?) as usize)
    }
    let nports = read_u32(buf, &mut off)?;
    let mut ports = Vec::with_capacity(nports);
    for _ in 0..nports {
        let ndst = read_u32(buf, &mut off)?;
        let mut dsts = Vec::with_capacity(ndst);
        for _ in 0..ndst {
            let nframes = read_u32(buf, &mut off)?;
            let mut frames = Vec::with_capacity(nframes);
            for _ in 0..nframes {
                let len = read_u32(buf, &mut off)?;
                let chunk = buf.get(off..off + len)?;
                off += len;
                frames.push(Frame::parse(bytes::Bytes::copy_from_slice(chunk)).ok()?);
            }
            dsts.push(frames);
        }
        ports.push(dsts);
    }
    Some(ports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_codec::{stable_hash, FrameBuilder};
    use hamr_simdisk::DiskConfig;

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

    fn test_disk() -> Disk {
        Disk::new(DiskConfig::instant())
    }

    #[test]
    fn resident_env_strings_parse() {
        assert_eq!(parse_enabled("off"), Ok(false));
        assert_eq!(parse_enabled("0"), Ok(false));
        assert_eq!(parse_enabled("on"), Ok(true));
        assert_eq!(parse_enabled("of"), Err("on|off".to_string()));
        assert_eq!(parse_budget(" 67108864 "), Ok(64 << 20));
        assert_eq!(parse_budget("0"), Ok(0));
        assert!(parse_budget("64MB").is_err(), "must not mean unbounded");
    }

    #[test]
    #[should_panic(
        expected = "HAMR_RESIDENT_BUDGET must be <bytes> (an integer, 0 = unlimited), got '64MB'"
    )]
    fn mistyped_budget_panics() {
        hamr_trace::value_or_panic("HAMR_RESIDENT_BUDGET", "64MB", parse_budget);
    }

    #[test]
    fn insert_then_lookup_hits() {
        let store = ResidentStore::new();
        store.set_enabled(true);
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
        let store = ResidentStore::new();
        store.set_enabled(true);
        store.insert("t", 7, 1, one_port(vec![frame(&[("a", 1)])]));
        let died = std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = store.inner.lock();
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
        let store = ResidentStore::new();
        store.set_enabled(true);
        store.insert("t", 7, 1, one_port(vec![frame(&[("a", 1)])]));
        assert!(store.lookup("t", 8, 1, 1).is_none());
        // The stale entry is gone even for the original fingerprint.
        assert!(store.lookup("t", 7, 1, 1).is_none());
        assert_eq!(store.stats().misses, 2);
        assert_eq!(store.stats().resident_bytes, 0);
    }

    #[test]
    fn topology_mismatch_invalidates() {
        let store = ResidentStore::new();
        store.set_enabled(true);
        store.insert("t", 7, 2, vec![vec![vec![], vec![]]]);
        assert!(store.lookup("t", 7, 4, 1).is_none(), "node count changed");
        store.insert("u", 7, 2, vec![vec![vec![], vec![]]]);
        assert!(store.lookup("u", 7, 2, 2).is_none(), "port count changed");
    }

    #[test]
    fn disabled_store_never_serves() {
        let store = ResidentStore::new();
        store.set_enabled(false);
        store.insert("t", 7, 1, one_port(vec![frame(&[("a", 1)])]));
        assert!(store.lookup("t", 7, 1, 1).is_none());
        assert_eq!(store.stats().entries, 0);
        store.set_enabled(true);
        store.insert("t", 7, 1, one_port(vec![frame(&[("a", 1)])]));
        store.set_enabled(false);
        assert!(store.lookup("t", 7, 1, 1).is_none());
        // Disabled lookups do not even count as misses.
        assert_eq!(store.stats().misses, 0);
    }

    #[test]
    fn budget_spills_lru_and_reloads() {
        let store = ResidentStore::new();
        store.set_enabled(true);
        store.set_spill(test_disk());
        let fa = frame(&[("aaaa", 1), ("bbbb", 2), ("cccc", 3)]);
        let fb = frame(&[("dddd", 4), ("eeee", 5), ("ffff", 6)]);
        let per = fa.payload_bytes() as u64;
        store.insert("a", 1, 1, one_port(vec![fa]));
        store.insert("b", 2, 1, one_port(vec![fb]));
        assert_eq!(store.stats().resident_bytes, 2 * per);
        // Budget fits one entry: the LRU ("a") spills.
        store.set_budget(per);
        let s = store.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_bytes, per);
        assert_eq!(s.entries, 2, "spilled entry still addressable");
        // Serving the spilled entry reloads it and spills the other.
        let hit = store.lookup("a", 1, 1, 1).expect("reload from spill");
        assert_eq!(hit.records, 3);
        assert_eq!(hit.ports[0][0][0].iter().count(), 3);
        let s = store.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.evictions, 2, "entry b spilled to make room");
        assert_eq!(s.resident_bytes, per);
    }

    #[test]
    fn budget_without_disk_drops() {
        let store = ResidentStore::new();
        store.set_enabled(true);
        store.set_budget(8);
        store.insert("t", 7, 1, one_port(vec![frame(&[("abcdef", 1)])]));
        let s = store.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_bytes, 0);
        assert!(store.lookup("t", 7, 1, 1).is_none());
    }

    #[test]
    fn invalidate_prefix_scopes_by_namespace() {
        let store = ResidentStore::new();
        store.set_enabled(true);
        store.insert("pr/adj", 1, 1, one_port(vec![frame(&[("a", 1)])]));
        store.insert("pr/r", 1, 1, one_port(vec![frame(&[("b", 1)])]));
        store.insert("km/pts", 1, 1, one_port(vec![frame(&[("c", 1)])]));
        assert_eq!(store.invalidate_prefix("pr/"), 2);
        assert!(store.lookup("pr/adj", 1, 1, 1).is_none());
        assert!(store.lookup("km/pts", 1, 1, 1).is_some());
        assert!(store.invalidate("km/pts"));
        assert!(!store.invalidate("km/pts"));
        assert_eq!(store.stats().resident_bytes, 0);
    }

    #[test]
    fn registry_binding_accumulates() {
        let registry = MetricsRegistry::new();
        let store = ResidentStore::new();
        store.set_enabled(true);
        store.bind_registry(&registry, "hamr");
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
