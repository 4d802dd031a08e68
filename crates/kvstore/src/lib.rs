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
//! Each shard is 16 lock stripes, so concurrent flowlet tasks do not
//! contend on one lock, and each stripe keeps its entries in one byte
//! arena found through the engine's probing table
//! ([`hamr_codec::slots::Slots`]): an operation hashes its key once,
//! and that hash picks the stripe and tags the probe.
//!
//! State deliberately persists across jobs — that is the point: it is
//! the "in-memory intermediate data organized in a distributed manner"
//! that replaces Hadoop's inter-job HDFS round trip.

use bytes::Bytes;
use hamr_codec::slots::{u32_at, Slots, ARENA_MAX};
use hamr_codec::{partition, stable_hash, Codec};
use parking_lot::RwLock;
use std::sync::Arc;

/// Lock stripes per shard.
const STRIPES: usize = 16;

/// An entry's `[klen u32][vlen u32]`, before its key and value.
const HEADER: usize = 8;

/// The key and value of the entry at `at`.
#[inline]
fn entry(arena: &[u8], at: usize) -> (&[u8], &[u8]) {
    let klen = u32_at(arena, at) as usize;
    let vlen = u32_at(arena, at + 4) as usize;
    let key = at + HEADER;
    (
        &arena[key..key + klen],
        &arena[key + klen..key + klen + vlen],
    )
}

/// One lock stripe: `[klen u32][vlen u32][key][value]` entries appended
/// to one arena, found through a [`Slots`] table tagged with the hash
/// that chose the stripe. A value replaced by one of the same length is
/// written in place; any other replace appends and leaves the old entry
/// dead, and a remove leaves a tombstone in the table. When dead bytes
/// pass half the arena it is compacted.
#[derive(Default)]
struct Stripe {
    arena: Vec<u8>,
    slots: Slots,
    /// Entries held.
    live: usize,
    /// Key + value bytes of the entries held.
    held: usize,
}

impl Stripe {
    fn find(&self, hash: u64, key: &[u8]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let arena = &self.arena;
        let slot = self
            .slots
            .probe(hash, |at| entry(arena, at).0 == key)
            .ok()?;
        Some(self.slots.offset(slot))
    }

    fn append(&mut self, key: &[u8], value: &[u8]) -> usize {
        let at = self.arena.len();
        assert!(
            at + HEADER + key.len() + value.len() < ARENA_MAX,
            "kv stripe arena past {ARENA_MAX} bytes"
        );
        self.arena
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.arena
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        at
    }

    fn put(&mut self, hash: u64, key: &[u8], value: &[u8]) {
        if self.slots.is_full() {
            self.slots.grow();
        }
        let arena = &self.arena;
        match self.slots.probe(hash, |at| entry(arena, at).0 == key) {
            Ok(slot) => {
                let at = self.slots.offset(slot);
                let old = u32_at(&self.arena, at + 4) as usize;
                self.held = self.held + value.len() - old;
                if old == value.len() {
                    let v = at + HEADER + key.len();
                    self.arena[v..v + old].copy_from_slice(value);
                } else {
                    let moved = self.append(key, value);
                    self.slots.set(slot, hash, moved);
                    self.compact_if_dead();
                }
            }
            Err(slot) => {
                let at = self.append(key, value);
                self.slots.set(slot, hash, at);
                self.live += 1;
                self.held += key.len() + value.len();
            }
        }
    }

    fn remove(&mut self, hash: u64, key: &[u8]) -> Option<Bytes> {
        let at = self.find(hash, key)?;
        let value = Bytes::copy_from_slice(entry(&self.arena, at).1);
        self.slots.unlink(hash, at);
        self.live -= 1;
        self.held -= key.len() + value.len();
        self.settle();
        Some(value)
    }

    /// Drop the entries whose key starts with `prefix`; returns how many.
    fn remove_prefix(&mut self, prefix: &[u8]) -> usize {
        let (arena, mut freed) = (&self.arena, 0);
        let gone = self.slots.retain(|at| {
            let (key, value) = entry(arena, at);
            let keep = !key.starts_with(prefix);
            if !keep {
                freed += key.len() + value.len();
            }
            keep
        });
        self.live -= gone;
        self.held -= freed;
        self.settle();
        gone
    }

    /// After a removal: an emptied stripe is cleared, any other one
    /// compacted if it has become mostly dead.
    fn settle(&mut self) {
        if self.live == 0 {
            self.clear();
        } else {
            self.compact_if_dead();
        }
    }

    /// Copy the live entries, in table order, into a fresh arena once
    /// dead bytes pass half of this one, so replaces and removes cannot
    /// grow it without bound.
    fn compact_if_dead(&mut self) {
        let live_bytes = self.live * HEADER + self.held;
        if (self.arena.len() - live_bytes) * 2 <= self.arena.len() {
            return;
        }
        let (arena, mut fresh) = (&self.arena, Vec::with_capacity(live_bytes));
        self.slots.remap(|at| {
            let (key, value) = entry(arena, at);
            let to = fresh.len();
            fresh.extend_from_slice(&arena[at..at + HEADER + key.len() + value.len()]);
            to
        });
        self.arena = fresh;
    }

    /// Empty, keeping the arena's and the table's allocations for the
    /// next fill (a namespace reset is followed by a rerun's puts).
    fn clear(&mut self) {
        self.arena.clear();
        self.slots.wipe();
        (self.live, self.held) = (0, 0);
    }
}

/// One node's slice of the store: [`STRIPES`] read-write-locked
/// stripes, each a byte arena of entries and the engine's probing
/// table over it. Every operation calls [`stable_hash`] once: its upper
/// half picks the stripe (the lower bits already routed the key to
/// this node) and its lower half tags the probe. A put copies the key
/// and value into the arena and allocates nothing once the arena and
/// table have room; a read borrows the value in place.
pub struct Shard {
    stripes: [RwLock<Stripe>; STRIPES],
}

impl Shard {
    fn new() -> Self {
        Shard {
            stripes: std::array::from_fn(|_| RwLock::default()),
        }
    }

    #[inline]
    fn stripe(&self, hash: u64) -> &RwLock<Stripe> {
        &self.stripes[(hash >> 32) as usize % STRIPES]
    }

    /// Insert or replace.
    pub fn put(&self, key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) {
        let (key, value) = (key.as_ref(), value.as_ref());
        let hash = stable_hash(key);
        self.stripe(hash).write().put(hash, key, value);
    }

    /// An owned copy of the value for `key`: for location-transparent
    /// reads. The engine's path is [`Shard::get_with`].
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.get_with(key, Bytes::copy_from_slice)
    }

    /// Read the value for `key` in place: `read` borrows it under the
    /// stripe's read lock, so a lookup that only decodes the value
    /// allocates nothing.
    pub fn get_with<R>(&self, key: &[u8], read: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let hash = stable_hash(key);
        let stripe = self.stripe(hash).read();
        let at = stripe.find(hash, key)?;
        Some(read(entry(&stripe.arena, at).1))
    }

    /// Remove a key; returns the removed value if any.
    pub fn remove(&self, key: &[u8]) -> Option<Bytes> {
        let hash = stable_hash(key);
        self.stripe(hash).write().remove(hash, key)
    }

    /// Number of keys in this shard.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().live).sum()
    }

    /// True when the shard holds no keys.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.read().live == 0)
    }

    /// Key + value bytes of the entries held (arena headers, dead bytes
    /// and the tables not counted).
    pub fn resident_bytes(&self) -> u64 {
        self.stripes.iter().map(|s| s.read().held as u64).sum()
    }

    /// Visit every entry, stripe by stripe in table order (no other
    /// ordering guarantee). Holds one stripe's read lock at a time.
    ///
    /// `f` must not call into this shard (no `get`, `get_with`, `put`,
    /// nested `for_each`). A stripe lock may make a new reader wait
    /// behind a writer that is already waiting (Linux's `RwLock` does),
    /// so a read taken inside `f` can queue behind another task's put
    /// to the stripe `for_each` holds, and that put waits for
    /// `for_each`: a deadlock. Collect what `f` sees, and look things
    /// up after it returns.
    pub fn for_each(&self, mut f: impl FnMut(&[u8], &[u8])) {
        for stripe in &self.stripes {
            let stripe = stripe.read();
            for at in stripe.slots.offsets() {
                let (key, value) = entry(&stripe.arena, at);
                f(key, value);
            }
        }
    }

    /// Drop all entries.
    pub fn clear(&self) {
        for stripe in &self.stripes {
            stripe.write().clear();
        }
    }

    /// Drop every key starting with `prefix` (namespaced reset: one
    /// workload's rerun cleanup must not clear other tenants' state).
    /// Returns the number of entries removed.
    pub fn remove_prefix(&self, prefix: &[u8]) -> usize {
        self.stripes
            .iter()
            .map(|s| s.write().remove_prefix(prefix))
            .sum()
    }

    // --- typed conveniences ----------------------------------------

    /// Typed insert via [`Codec`].
    pub fn put_t<K: Codec, V: Codec>(&self, key: &K, value: &V) {
        self.put(key.to_bytes(), value.to_bytes());
    }

    /// Typed fetch. Returns `None` if absent; panics on corrupt bytes
    /// (type confusion is a caller bug, not a runtime condition).
    pub fn get_t<K: Codec, V: Codec>(&self, key: &K) -> Option<V> {
        self.get_with(&key.to_bytes(), |v| {
            V::from_bytes(v).expect("kvstore value decoded as wrong type")
        })
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
    pub fn put(&self, key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) {
        let key = key.as_ref();
        self.shards[self.owner(key)].put(key, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove_roundtrip() {
        let shard = Shard::new();
        shard.put("k", "v1");
        assert_eq!(shard.get(b"k").unwrap(), "v1");
        shard.put("k", "v2");
        assert_eq!(shard.get(b"k").unwrap(), "v2");
        assert_eq!(shard.remove(b"k").unwrap(), "v2");
        assert!(shard.get(b"k").is_none());
        assert!(shard.remove(b"k").is_none());
        assert!(shard.is_empty());
    }

    #[test]
    fn get_with_reads_the_value_in_place() {
        let shard = Shard::new();
        assert_eq!(shard.get_with(b"k", |v| v.len()), None);
        shard.put("k", 7u64.to_bytes());
        assert_eq!(
            shard.get_with(b"k", |v| u64::from_bytes(v).unwrap()),
            Some(7)
        );
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
        let raw = shard.remove(&"page".to_string().to_bytes()).unwrap();
        assert_eq!(Vec::<u64>::from_bytes(&raw).unwrap(), vec![1, 2, 3]);
        assert_eq!(shard.get_t::<String, Vec<u64>>(&"page".to_string()), None);
    }

    #[test]
    fn resident_bytes_tracks_content() {
        let shard = Shard::new();
        shard.put("ab", "cdef");
        assert_eq!(shard.resident_bytes(), 6);
        shard.put("ab", "wxyz");
        assert_eq!(shard.resident_bytes(), 6);
        shard.put("ab", "x");
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
            store.put(i.to_bytes(), "v");
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
        store.put("a", "1");
        store.put("b", "2");
        store.clear();
        assert_eq!(store.total_len(), 0);
        assert_eq!(store.total_bytes(), 0);
        assert!(store.get(b"a").is_none());
        store.put("a", "3");
        assert_eq!(store.get(b"a").unwrap(), "3");
    }

    #[test]
    fn remove_prefix_scopes_by_namespace() {
        let store = KvStore::new(2);
        store.put("pr/r1", "a");
        store.put("pr/r2", "bb");
        store.put("km/c1", "c");
        assert_eq!(store.remove_prefix(b"pr/"), 2);
        assert_eq!(store.total_len(), 1);
        assert!(store.get(b"km/c1").is_some());
        assert!(store.get(b"pr/r1").is_none());
        // Byte accounting survives the removal.
        assert_eq!(store.total_bytes(), "km/c1".len() as u64 + 1);
        assert_eq!(store.remove_prefix(b"pr/"), 0);
    }

    #[test]
    fn an_emptied_stripe_keeps_its_allocations() {
        let mut stripe = Stripe::default();
        for i in 0..1000u64 {
            let key = format!("pr/{i}");
            stripe.put(stable_hash(key.as_bytes()), key.as_bytes(), b"rank");
        }
        let (arena, table) = (stripe.arena.capacity(), stripe.slots.len());
        assert_eq!(stripe.remove_prefix(b"pr/"), 1000);
        assert_eq!((stripe.live, stripe.held, stripe.arena.len()), (0, 0, 0));
        assert_eq!(
            (stripe.arena.capacity(), stripe.slots.len()),
            (arena, table)
        );
    }

    #[test]
    fn dead_bytes_stay_under_half_the_arena() {
        let mut stripe = Stripe::default();
        let hash = stable_hash(b"k");
        for n in 0..1000usize {
            stripe.put(hash, b"k", &vec![1; n % 7]);
            let live = stripe.live * HEADER + stripe.held;
            assert!(stripe.arena.len() - live <= stripe.arena.len() / 2);
        }
        assert_eq!(
            stripe
                .find(hash, b"k")
                .map(|at| entry(&stripe.arena, at).1.len()),
            Some(999 % 7)
        );
    }

    #[test]
    fn concurrent_updates_are_atomic() {
        // Writers replace one key's value in place (same length) and by
        // append (other lengths, with compactions); a reader, started
        // with them, must only ever see a whole value one writer put.
        let shard = Shard::new();
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|s| {
            for t in 1..=4u8 {
                let (shard, start) = (&shard, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..2000usize {
                        shard.put("ctr", vec![t; 8 + (i % 3) * t as usize]);
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for _ in 0..20_000 {
                    shard.get_with(b"ctr", |v| {
                        let t = v[0];
                        assert!(v.iter().all(|&b| b == t), "torn value {v:?}");
                        assert!(
                            (v.len() - 8).is_multiple_of(t as usize),
                            "torn length {v:?}"
                        );
                    });
                }
            });
        });
        assert_eq!(shard.len(), 1);
        let v = shard.get(b"ctr").unwrap();
        assert_eq!(shard.resident_bytes(), 3 + v.len() as u64);
    }
}
