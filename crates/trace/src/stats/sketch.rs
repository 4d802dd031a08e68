//! The three streaming sketches, the [`SketchSet`] that bundles them
//! per (edge, destination) and the serializable summary a set
//! condenses into. See the [module docs](super) for what each
//! guarantees.

use crate::Log2Hist;

/// Register-count exponent: 2^12 registers.
const HLL_P: u32 = 12;
const HLL_M: usize = 1 << HLL_P;

/// HyperLogLog distinct estimator over pre-hashed 64-bit keys.
#[derive(Clone)]
pub struct Hll {
    regs: Box<[u8; HLL_M]>,
}

impl Default for Hll {
    fn default() -> Self {
        Hll::new()
    }
}

impl Hll {
    pub fn new() -> Self {
        Hll {
            regs: Box::new([0u8; HLL_M]),
        }
    }

    /// Observe one (already well-mixed) 64-bit hash.
    #[inline]
    pub fn insert(&mut self, hash: u64) {
        let idx = (hash >> (64 - HLL_P)) as usize;
        // Rank of the first set bit in the remaining 52 bits, 1-based;
        // an all-zero suffix saturates at 53.
        let w = hash << HLL_P;
        let rank = if w == 0 {
            (64 - HLL_P + 1) as u8
        } else {
            w.leading_zeros() as u8 + 1
        };
        if rank > self.regs[idx] {
            self.regs[idx] = rank;
        }
    }

    /// The standard-error of the estimate: 1.04/√m ≈ 1.63%.
    pub fn standard_error() -> f64 {
        1.04 / (HLL_M as f64).sqrt()
    }

    /// Cardinality estimate with the linear-counting small-range
    /// correction (which makes small cardinalities essentially exact).
    pub fn estimate(&self) -> f64 {
        let m = HLL_M as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let mut sum = 0.0f64;
        let mut zeros = 0usize;
        for &r in self.regs.iter() {
            sum += 1.0 / ((1u64 << r.min(63)) as f64);
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    pub fn distinct(&self) -> u64 {
        self.estimate().round() as u64
    }

    /// Register-wise max: exact, associative, commutative, idempotent.
    pub fn merge(&mut self, other: &Hll) {
        for (a, b) in self.regs.iter_mut().zip(other.regs.iter()) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.regs.iter().all(|&r| r == 0)
    }

    #[cfg(test)]
    pub(crate) fn registers(&self) -> &[u8] {
        &self.regs[..]
    }
}

impl std::fmt::Debug for Hll {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hll")
            .field("distinct", &self.distinct())
            .finish()
    }
}

/// Longest key-byte prefix a sketch entry or lineage sample retains.
pub const KEY_SAMPLE_BYTES: usize = 48;

/// One tracked heavy hitter, as [`SpaceSaving::top`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsEntry {
    pub hash: u64,
    /// Overestimate of the key's true weight.
    pub count: u64,
    /// Maximum overestimation: `count - err` is a guaranteed floor.
    pub err: u64,
    /// First-seen key bytes (truncated).
    pub key: Box<[u8]>,
}

/// The counters of one tracked hash. Key samples live apart, so the
/// slots a probe or the eviction scan touches pack at 24 bytes each.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    count: u64,
    err: u64,
}

/// A key-byte prefix stored inline, so that claiming or evicting a
/// slot allocates nothing.
#[derive(Debug, Clone, Copy)]
struct KeySample {
    len: u8,
    bytes: [u8; KEY_SAMPLE_BYTES],
}

const _: () = assert!(KEY_SAMPLE_BYTES <= u8::MAX as usize);

impl KeySample {
    fn new(key: &[u8]) -> Self {
        let len = key.len().min(KEY_SAMPLE_BYTES);
        let mut bytes = [0; KEY_SAMPLE_BYTES];
        bytes[..len].copy_from_slice(&key[..len]);
        KeySample {
            len: len as u8,
            bytes,
        }
    }

    fn get(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

/// A node of the eviction heap: the `(count, hash)` a slot had when the
/// node was last sifted. A slot's count only grows, so this is a lower
/// bound on the slot's present order key.
#[derive(Debug, Clone, Copy)]
struct HeapNode {
    count: u64,
    hash: u64,
    slot: u32,
}

impl HeapNode {
    /// `(count, hash)` as one integer, so that comparing two nodes is
    /// branch-free.
    #[inline]
    fn order(&self) -> u128 {
        (self.count as u128) << 64 | self.hash as u128
    }
}

/// The high half of a hash's Fibonacci scramble. The stream's hashes
/// can share their low bits (an (edge, dst) slot sees one residue of
/// `hash % nodes`); the scramble's high bits do not.
#[inline]
fn tag(hash: u64) -> u32 {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// SpaceSaving top-K sketch over pre-hashed keys, with the classic
/// guarantee `count − err ≤ true-count ≤ count` for every tracked key,
/// and every key of true weight > total/capacity guaranteed present.
/// A full sketch evicts the slot with the least `(count, hash)`.
///
/// Cost of one [`observe`](Self::observe): a tracked hash is one probe
/// of an open-addressed index (linear probing, load ≤ 1/4, a 32-bit
/// tag per bucket so that a mismatch rarely reads a slot) and one add;
/// nothing else is touched. An untracked hash into a full sketch also
/// replaces the root of a binary min-heap on `(count, hash)` and sifts
/// it down, O(log capacity), and moves one index entry. The heap is
/// lazy: an add leaves its node stale, and a stale node is refreshed
/// only when it surfaces at the root, so each add pays for at most one
/// later sift; the heap is not built before the first eviction. No
/// path allocates once the sketch exists (key samples are inline).
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    cap: usize,
    slots: Vec<Slot>,
    /// Key samples, parallel to `slots`.
    keys: Vec<KeySample>,
    /// Open-addressed index, a power of two of at least `4 * cap`
    /// buckets: probe runs are short enough that their length is
    /// predictable. A bucket is 0 when empty, else the hash's [`tag`] in
    /// the high half and `slot + 1` in the low half. The tag's top
    /// bits are the bucket the hash probes from.
    index: Vec<u64>,
    /// Right shift that takes a tag to its home bucket.
    shift: u32,
    /// Lazy min-heap over all slots; empty until the first eviction
    /// and after `merge`/`clear`.
    heap: Vec<HeapNode>,
    /// Total observed weight (for share-of-traffic queries).
    total: u64,
}

impl SpaceSaving {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0 && cap <= (u32::MAX / 4) as usize);
        let buckets = (4 * cap).next_power_of_two();
        SpaceSaving {
            cap,
            slots: Vec::with_capacity(cap),
            keys: Vec::with_capacity(cap),
            index: vec![0; buckets],
            shift: 32 - buckets.trailing_zeros(),
            heap: Vec::new(),
            total: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Forget everything observed, keeping the tables for reuse.
    fn clear(&mut self) {
        self.slots.clear();
        self.keys.clear();
        self.index.fill(0);
        self.heap.clear();
        self.total = 0;
    }

    #[inline]
    fn home(&self, tag: u32) -> usize {
        (tag >> self.shift) as usize
    }

    /// The slot tracking `hash` (`Ok`), or the empty bucket that ends
    /// its probe sequence (`Err`).
    #[inline]
    fn probe(&self, hash: u64) -> Result<usize, usize> {
        let tag = tag(hash);
        let mask = self.index.len() - 1;
        let mut b = self.home(tag);
        loop {
            let entry = self.index[b];
            if entry == 0 {
                return Err(b);
            }
            let slot = (entry as u32 as usize).wrapping_sub(1);
            if (entry >> 32) as u32 == tag && self.slots[slot].hash == hash {
                return Ok(slot);
            }
            b = (b + 1) & mask;
        }
    }

    /// Take `slot` out of the index, moving later members of its probe
    /// run back so that every remaining hash is still reachable from
    /// its home. Returns the one bucket this leaves newly empty.
    fn unindex(&mut self, slot: usize) -> usize {
        let mask = self.index.len() - 1;
        let mut b = self.home(tag(self.slots[slot].hash));
        while self.index[b] as u32 as usize != slot + 1 {
            b = (b + 1) & mask;
        }
        let mut next = (b + 1) & mask;
        while self.index[next] != 0 {
            let home = self.home((self.index[next] >> 32) as u32);
            // `next`'s occupant may move back to `b` unless its home
            // lies cyclically in (b, next].
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(b) & mask) {
                self.index[b] = self.index[next];
                b = next;
            }
            next = (next + 1) & mask;
        }
        self.index[b] = 0;
        b
    }

    /// Point `bucket`, the empty bucket that ends the probe run of
    /// `slot`'s hash, at `slot`.
    fn index_slot(&mut self, bucket: usize, slot: usize) {
        self.index[bucket] = (tag(self.slots[slot].hash) as u64) << 32 | (slot as u64 + 1);
    }

    fn sift_down(&mut self, mut i: usize) {
        let heap = &mut self.heap[..];
        let node = heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= heap.len() {
                break;
            }
            if child + 1 < heap.len() {
                child += (heap[child + 1].order() < heap[child].order()) as usize;
            }
            if node.order() <= heap[child].order() {
                break;
            }
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = node;
    }

    /// The slot with the least `(count, hash)`, left at the heap root.
    /// Only called on a full sketch.
    fn min_slot(&mut self) -> usize {
        if self.heap.is_empty() {
            self.heap
                .extend(self.slots.iter().enumerate().map(|(i, s)| HeapNode {
                    count: s.count,
                    hash: s.hash,
                    slot: i as u32,
                }));
            for i in (0..self.heap.len() / 2).rev() {
                self.sift_down(i);
            }
        }
        loop {
            let root = self.heap[0];
            let count = self.slots[root.slot as usize].count;
            // A fresh root is the true minimum: every other node is a
            // lower bound on its slot and is no smaller than the root.
            if count == root.count {
                return root.slot as usize;
            }
            self.heap[0].count = count;
            self.sift_down(0);
        }
    }

    /// Observe `hash` with weight `w`; `key` is sampled into the slot
    /// when the hash claims it.
    #[inline]
    pub fn observe(&mut self, hash: u64, key: &[u8], w: u64) {
        self.total += w;
        let mut bucket = match self.probe(hash) {
            Ok(i) => {
                self.slots[i].count += w;
                return;
            }
            Err(b) => b,
        };
        let slot = self.slots.len();
        let slot = if slot < self.cap {
            self.slots.push(Slot {
                hash,
                count: w,
                err: 0,
            });
            self.keys.push(KeySample::new(key));
            slot
        } else {
            // Evict the minimum-count slot (ties broken by hash for
            // determinism); the newcomer inherits its count as error.
            let slot = self.min_slot();
            let least = self.slots[slot].count;
            // If the eviction opened a bucket on this hash's probe run,
            // that bucket now ends the run.
            let opened = self.unindex(slot);
            let (mask, home) = (self.index.len() - 1, self.home(tag(hash)));
            if (opened.wrapping_sub(home) & mask) < (bucket.wrapping_sub(home) & mask) {
                bucket = opened;
            }
            self.slots[slot] = Slot {
                hash,
                count: least + w,
                err: least,
            };
            self.heap[0] = HeapNode {
                count: least + w,
                hash,
                slot: slot as u32,
            };
            self.sift_down(0);
            self.keys[slot] = KeySample::new(key);
            slot
        };
        self.index_slot(bucket, slot);
    }

    /// `(count, err)` for a tracked hash.
    pub fn get(&self, hash: u64) -> Option<(u64, u64)> {
        let i = self.probe(hash).ok()?;
        Some((self.slots[i].count, self.slots[i].err))
    }

    /// Guaranteed lower bound on a tracked hash's true weight (0 when
    /// untracked).
    pub fn guaranteed(&self, hash: u64) -> u64 {
        self.get(hash)
            .map_or(0, |(count, err)| count.saturating_sub(err))
    }

    fn entry(&self, slot: usize) -> SsEntry {
        let s = self.slots[slot];
        SsEntry {
            hash: s.hash,
            count: s.count,
            err: s.err,
            key: self.keys[slot].get().into(),
        }
    }

    /// Entries sorted by count descending (ties by hash ascending):
    /// the canonical top-K view.
    pub fn top(&self) -> Vec<SsEntry> {
        let mut v: Vec<SsEntry> = (0..self.slots.len()).map(|i| self.entry(i)).collect();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.hash.cmp(&b.hash)));
        v
    }

    /// What an untracked hash may have weighed: the least count of a
    /// full sketch, 0 while nothing has been evicted.
    fn slack(&self) -> u64 {
        if self.slots.len() < self.cap {
            return 0;
        }
        self.slots.iter().map(|s| s.count).min().unwrap_or(0)
    }

    /// Merge another sketch in. For hashes present in both, counts and
    /// errors add exactly. A hash present in only one sketch may have
    /// been evicted by the other — its count there is at most that
    /// sketch's minimum, which is added to both count and error so the
    /// guaranteed-count invariant survives the merge. Commutative
    /// always; associative (and exact) whenever no eviction occurred.
    pub fn merge(&mut self, other: &SpaceSaving) {
        let (slack_self, slack_other) = (self.slack(), other.slack());
        let mut all: Vec<(Slot, KeySample)> = Vec::with_capacity(self.len() + other.len());
        for (i, s) in self.slots.iter().enumerate() {
            let (mut s, key) = (*s, self.keys[i]);
            match other.probe(s.hash) {
                Ok(j) => {
                    s.count += other.slots[j].count;
                    s.err += other.slots[j].err;
                }
                Err(_) => {
                    s.count += slack_other;
                    s.err += slack_other;
                }
            }
            all.push((s, key));
        }
        for (j, s) in other.slots.iter().enumerate() {
            if self.probe(s.hash).is_err() {
                let mut s = *s;
                s.count += slack_self;
                s.err += slack_self;
                all.push((s, other.keys[j]));
            }
        }
        all.sort_by(|(a, _), (b, _)| b.count.cmp(&a.count).then(a.hash.cmp(&b.hash)));
        all.truncate(self.cap);
        let total = self.total + other.total;
        self.clear();
        self.total = total;
        for (i, (s, key)) in all.into_iter().enumerate() {
            let bucket = self.probe(s.hash).expect_err("merged hashes are distinct");
            self.slots.push(s);
            self.keys.push(key);
            self.index_slot(bucket, i);
        }
    }
}

/// Heavy-hitter capacity on stats-plane edges.
pub const STATS_TOP_K: usize = 32;

/// The per-(edge, dst-partition) bundle: distinct keys, heavy hitters,
/// and value-size quantiles, all from one pass over already-hashed
/// records.
#[derive(Debug, Clone)]
pub struct SketchSet {
    pub records: u64,
    pub bytes: u64,
    pub hll: Hll,
    pub topk: SpaceSaving,
    pub sizes: Log2Hist,
}

impl Default for SketchSet {
    fn default() -> Self {
        SketchSet::new(STATS_TOP_K)
    }
}

impl SketchSet {
    pub fn new(top_k: usize) -> Self {
        SketchSet {
            records: 0,
            bytes: 0,
            hll: Hll::new(),
            topk: SpaceSaving::new(top_k),
            sizes: Log2Hist::new(),
        }
    }

    /// Observe one record: its emit-time hash, key bytes (sampled into
    /// the heavy-hitter slot), and value size.
    #[inline]
    pub fn observe(&mut self, hash: u64, key: &[u8], value_len: usize) {
        self.records += 1;
        self.bytes += (key.len() + value_len) as u64;
        self.hll.insert(hash);
        self.topk.observe(hash, key, 1);
        self.sizes.record(value_len as u64);
    }

    pub fn distinct(&self) -> u64 {
        self.hll.distinct()
    }

    /// Share of observed traffic guaranteed to belong to the single
    /// hottest key (0.0 when empty).
    pub fn hot_share(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        let top = self.topk.top();
        match top.first() {
            Some(e) => e.count.saturating_sub(e.err) as f64 / self.records as f64,
            None => 0.0,
        }
    }

    pub fn merge(&mut self, other: &SketchSet) {
        self.records += other.records;
        self.bytes += other.bytes;
        self.hll.merge(&other.hll);
        self.topk.merge(&other.topk);
        self.sizes.merge(&other.sizes);
    }

    /// Condense into the serializable per-edge summary.
    pub fn summary(&self, edge: u32) -> EdgeStatsSummary {
        let top = self
            .topk
            .top()
            .into_iter()
            .take(8)
            .map(|e| TopKey {
                hash: e.hash,
                count: e.count,
                err: e.err,
                key: e.key.into_vec(),
            })
            .collect();
        EdgeStatsSummary {
            edge,
            records: self.records,
            bytes: self.bytes,
            distinct: self.distinct(),
            hot_share: self.hot_share(),
            top,
            p50: self.sizes.quantile(0.50),
            p90: self.sizes.quantile(0.90),
            p99: self.sizes.quantile(0.99),
        }
    }
}

/// One heavy hitter in a summary: hash, count bounds, and a key-byte
/// sample for naming it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKey {
    pub hash: u64,
    pub count: u64,
    pub err: u64,
    pub key: Vec<u8>,
}

/// A job-wide profile of one shuffle edge: sketches merged across
/// every destination partition.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeStatsSummary {
    pub edge: u32,
    pub records: u64,
    pub bytes: u64,
    pub distinct: u64,
    pub hot_share: f64,
    pub top: Vec<TopKey>,
    /// Value-size quantiles (inclusive log2-bucket upper bounds).
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}
