//! Distributed in-memory key-value store for HAMR.
//!
//! The paper (§5.2, §7) describes a "key-value store" component under
//! development: one JVM per node holds shared in-memory state that all
//! tasks on the node can access, so e.g. K-Cliques can "build the graph
//! into memory distributedly" and PageRank iterations can keep adjacency
//! lists resident between jobs.
//!
//! This crate is that component. A [`KvStore`] has one [`Shard`] per
//! cluster node; keys are owned by the node `stable_hash(key) % nodes`.
//! Flowlets shuffled with `Exchange::Hash` receive exactly the keys
//! their node owns, so the common access pattern is purely node-local.
//! Each shard is internally sub-sharded to keep concurrent flowlet
//! tasks from contending on one lock.
//!
//! State deliberately persists across jobs — that is the point: it is
//! the "in-memory intermediate data organized in a distributed manner"
//! that replaces Hadoop's inter-job HDFS round trip.

use bytes::Bytes;
use hamr_codec::{partition, Codec, StableMap};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of lock-striped sub-maps per shard.
const SUB_SHARDS: usize = 16;

/// One node's slice of the store. Its maps probe with the engine's
/// [`StableMap`] hasher, not `SipHash`: the keys are the engine's own.
pub struct Shard {
    maps: Vec<RwLock<StableMap<Bytes, Bytes>>>,
    bytes: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            maps: (0..SUB_SHARDS)
                .map(|_| RwLock::new(StableMap::default()))
                .collect(),
            bytes: AtomicU64::new(0),
        }
    }

    #[inline]
    fn map_for(&self, key: &[u8]) -> &RwLock<StableMap<Bytes, Bytes>> {
        // Use the *upper* hash bits: the lower bits already routed the
        // key to this node, so reusing them would collapse a node's
        // keys into a couple of sub-shards.
        let idx = (hamr_codec::stable_hash(key) >> 32) % SUB_SHARDS as u64;
        &self.maps[idx as usize]
    }

    /// Insert or replace; returns the previous value if any.
    pub fn put(&self, key: Bytes, value: Bytes) -> Option<Bytes> {
        let klen = key.len() as i64;
        let vlen = value.len() as i64;
        let prev = self.map_for(&key).write().insert(key, value);
        let delta = match &prev {
            // Key bytes were already accounted on first insert.
            Some(p) => vlen - p.len() as i64,
            None => klen + vlen,
        };
        self.add_bytes(delta);
        prev
    }

    /// Fetch a value by key.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.map_for(key).read().get(key).cloned()
    }

    /// Read the value for `key` in place: `read` borrows it under the
    /// sub-shard's read lock, so a lookup that only decodes the value
    /// allocates nothing and touches no refcount.
    pub fn get_with<R>(&self, key: &[u8], read: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.map_for(key).read().get(key).map(|v| read(v))
    }

    /// Remove a key; returns the removed value if any.
    pub fn remove(&self, key: &[u8]) -> Option<Bytes> {
        let prev = self.map_for(key).write().remove(key);
        if let Some(p) = &prev {
            self.add_bytes(-((key.len() + p.len()) as i64));
        }
        prev
    }

    /// Atomically update the value for `key` with `f(old) -> new`.
    /// Returns the new value.
    pub fn update(&self, key: Bytes, f: impl FnOnce(Option<&Bytes>) -> Bytes) -> Bytes {
        let mut map = self.map_for(&key).write();
        let old = map.get(&key);
        let old_len = old.map_or(0, |v| v.len()) as i64;
        let new = f(old);
        let delta = new.len() as i64 - old_len + if old.is_none() { key.len() as i64 } else { 0 };
        map.insert(key, new.clone());
        drop(map);
        self.add_bytes(delta);
        new
    }

    fn add_bytes(&self, delta: i64) {
        if delta >= 0 {
            self.bytes.fetch_add(delta as u64, Ordering::Relaxed);
        } else {
            self.bytes.fetch_sub((-delta) as u64, Ordering::Relaxed);
        }
    }

    /// Number of keys in this shard.
    pub fn len(&self) -> usize {
        self.maps.iter().map(|m| m.read().len()).sum()
    }

    /// True when the shard holds no keys.
    pub fn is_empty(&self) -> bool {
        self.maps.iter().all(|m| m.read().is_empty())
    }

    /// Approximate resident key+value bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Visit every entry (no ordering guarantee). Holds one sub-shard
    /// read lock at a time.
    pub fn for_each(&self, mut f: impl FnMut(&Bytes, &Bytes)) {
        for m in &self.maps {
            for (k, v) in m.read().iter() {
                f(k, v);
            }
        }
    }

    /// Drop all entries.
    pub fn clear(&self) {
        for m in &self.maps {
            m.write().clear();
        }
        self.bytes.store(0, Ordering::Relaxed);
    }

    /// Drop every key starting with `prefix` (namespaced reset: one
    /// workload's rerun cleanup must not clear other tenants' state).
    /// Returns the number of entries removed.
    pub fn remove_prefix(&self, prefix: &[u8]) -> usize {
        let mut removed = 0usize;
        let mut freed = 0i64;
        for m in &self.maps {
            let mut map = m.write();
            map.retain(|k, v| {
                if k.starts_with(prefix) {
                    removed += 1;
                    freed += (k.len() + v.len()) as i64;
                    false
                } else {
                    true
                }
            });
        }
        self.add_bytes(-freed);
        removed
    }

    // --- typed conveniences ----------------------------------------

    /// Typed insert via [`Codec`].
    pub fn put_t<K: Codec, V: Codec>(&self, key: &K, value: &V) {
        self.put(key.to_bytes(), value.to_bytes());
    }

    /// Typed fetch. Returns `None` if absent; panics on corrupt bytes
    /// (type confusion is a caller bug, not a runtime condition).
    pub fn get_t<K: Codec, V: Codec>(&self, key: &K) -> Option<V> {
        self.get(&key.to_bytes())
            .map(|v| V::from_bytes(&v).expect("kvstore value decoded as wrong type"))
    }

    /// Typed remove.
    pub fn remove_t<K: Codec, V: Codec>(&self, key: &K) -> Option<V> {
        self.remove(&key.to_bytes())
            .map(|v| V::from_bytes(&v).expect("kvstore value decoded as wrong type"))
    }
}

/// The cluster-wide store: one shard per node.
#[derive(Clone)]
pub struct KvStore {
    shards: Vec<Arc<Shard>>,
}

impl KvStore {
    /// Create a store for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "kvstore needs at least one shard");
        KvStore {
            shards: (0..n).map(|_| Arc::new(Shard::new())).collect(),
        }
    }

    /// Number of node shards.
    pub fn cluster_size(&self) -> usize {
        self.shards.len()
    }

    /// The shard resident on `node`.
    pub fn shard(&self, node: usize) -> Arc<Shard> {
        Arc::clone(&self.shards[node])
    }

    /// Which node owns `key` under hash partitioning.
    pub fn owner(&self, key: &[u8]) -> usize {
        partition(key, self.shards.len())
    }

    /// Store-wide key count.
    pub fn total_len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Store-wide resident bytes.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.resident_bytes()).sum()
    }

    /// Clear every shard.
    pub fn clear(&self) {
        for s in &self.shards {
            s.clear();
        }
    }

    /// Drop every key starting with `prefix` on every shard. Returns
    /// the total number of entries removed.
    pub fn remove_prefix(&self, prefix: &[u8]) -> usize {
        self.shards.iter().map(|s| s.remove_prefix(prefix)).sum()
    }

    /// Get from the owning shard (location-transparent read).
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.shards[self.owner(key)].get(key)
    }

    /// Put to the owning shard (location-transparent write).
    pub fn put(&self, key: Bytes, value: Bytes) -> Option<Bytes> {
        self.shards[self.owner(&key)].put(key, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove_roundtrip() {
        let shard = Shard::new();
        assert!(shard.put(Bytes::from("k"), Bytes::from("v1")).is_none());
        assert_eq!(shard.get(b"k").unwrap(), "v1");
        assert_eq!(
            shard.put(Bytes::from("k"), Bytes::from("v2")).unwrap(),
            "v1"
        );
        assert_eq!(shard.remove(b"k").unwrap(), "v2");
        assert!(shard.get(b"k").is_none());
        assert!(shard.is_empty());
    }

    #[test]
    fn get_with_reads_the_value_in_place() {
        let shard = Shard::new();
        assert_eq!(shard.get_with(b"k", |v| v.len()), None);
        shard.put(Bytes::from("k"), 7u64.to_bytes());
        assert_eq!(
            shard.get_with(b"k", |v| u64::from_bytes(v).unwrap()),
            Some(7)
        );
    }

    #[test]
    fn update_applies_function() {
        let shard = Shard::new();
        let v = shard.update(Bytes::from("cnt"), |old| {
            assert!(old.is_none());
            1u64.to_bytes()
        });
        assert_eq!(u64::from_bytes(&v).unwrap(), 1);
        shard.update(Bytes::from("cnt"), |old| {
            let n = u64::from_bytes(old.unwrap()).unwrap();
            (n + 1).to_bytes()
        });
        assert_eq!(shard.get_t::<String, u64>(&"cnt".to_string()), None); // different key encoding
        let raw = shard.get(b"cnt").unwrap();
        assert_eq!(u64::from_bytes(&raw).unwrap(), 2);
    }

    #[test]
    fn typed_roundtrip() {
        let shard = Shard::new();
        shard.put_t(&"page".to_string(), &vec![1u64, 2, 3]);
        assert_eq!(
            shard
                .get_t::<String, Vec<u64>>(&"page".to_string())
                .unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(
            shard
                .remove_t::<String, Vec<u64>>(&"page".to_string())
                .unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn resident_bytes_tracks_content() {
        let shard = Shard::new();
        shard.put(Bytes::from("ab"), Bytes::from("cdef"));
        assert_eq!(shard.resident_bytes(), 6);
        shard.put(Bytes::from("ab"), Bytes::from("x"));
        assert_eq!(shard.resident_bytes(), 3);
        shard.remove(b"ab");
        assert_eq!(shard.resident_bytes(), 0);
    }

    #[test]
    fn for_each_visits_all() {
        let shard = Shard::new();
        for i in 0..100u64 {
            shard.put_t(&i, &(i * 2));
        }
        let mut sum = 0u64;
        shard.for_each(|_, v| sum += u64::from_bytes(v).unwrap());
        assert_eq!(sum, (0..100).map(|i| i * 2).sum::<u64>());
        assert_eq!(shard.len(), 100);
    }

    #[test]
    fn store_routes_to_owner() {
        let store = KvStore::new(4);
        for i in 0..200u64 {
            store.put(i.to_bytes(), Bytes::from("v"));
        }
        assert_eq!(store.total_len(), 200);
        // Each key lives only on its owner shard.
        for i in 0..200u64 {
            let key = i.to_bytes();
            let owner = store.owner(&key);
            assert!(store.shard(owner).get(&key).is_some());
            for n in 0..4 {
                if n != owner {
                    assert!(store.shard(n).get(&key).is_none());
                }
            }
        }
        // Keys spread across shards.
        let populated = (0..4).filter(|&n| !store.shard(n).is_empty()).count();
        assert!(populated >= 3, "keys should spread across shards");
    }

    #[test]
    fn clear_empties_everything() {
        let store = KvStore::new(2);
        store.put(Bytes::from("a"), Bytes::from("1"));
        store.put(Bytes::from("b"), Bytes::from("2"));
        store.clear();
        assert_eq!(store.total_len(), 0);
        assert_eq!(store.total_bytes(), 0);
    }

    #[test]
    fn remove_prefix_scopes_by_namespace() {
        let store = KvStore::new(2);
        store.put(Bytes::from("pr/r1"), Bytes::from("a"));
        store.put(Bytes::from("pr/r2"), Bytes::from("bb"));
        store.put(Bytes::from("km/c1"), Bytes::from("c"));
        assert_eq!(store.remove_prefix(b"pr/"), 2);
        assert_eq!(store.total_len(), 1);
        assert!(store.get(b"km/c1").is_some());
        assert!(store.get(b"pr/r1").is_none());
        // Byte accounting survives the retain pass.
        assert_eq!(store.total_bytes(), "km/c1".len() as u64 + 1);
        assert_eq!(store.remove_prefix(b"pr/"), 0);
    }

    #[test]
    fn concurrent_updates_are_atomic() {
        let shard = Arc::new(Shard::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        shard.update(Bytes::from("ctr"), |old| {
                            let n = old.map_or(0, |b| u64::from_bytes(b).unwrap());
                            (n + 1).to_bytes()
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let v = shard.get(b"ctr").unwrap();
        assert_eq!(u64::from_bytes(&v).unwrap(), 8000);
    }
}
