//! Data-plane statistics: streaming sketches over the records that
//! actually flow, not just the tasks that move them.
//!
//! Every (edge, destination-partition) pair carries a [`SketchSet`]:
//!
//! * [`Hll`] — a HyperLogLog distinct-key estimator with a fixed
//!   2^12 = 4096 registers (4 KiB, standard error 1.04/√4096 ≈ 1.6%),
//!   fed the 64-bit key hash the frame already carries — zero re-hash;
//! * [`SpaceSaving`] — the Metwally et al. top-K heavy-hitter sketch
//!   with the guaranteed-count invariant `count − err ≤ true ≤ count`
//!   (K = 32 on the stats plane, with key-byte samples for naming). A
//!   record costs one index probe and one add, an eviction one
//!   O(log K) heap sift, and neither allocates;
//! * [`SizeHist`] — a log2 histogram of record value sizes answering
//!   quantile queries to within a power of two.
//!
//! All three merge associatively across partitions and nodes, so a
//! job-wide per-edge profile is a fold, not a re-scan. The sketches
//! are observers: they never influence routing, so runs with stats on
//! and off are byte-identical.
//!
//! [`StatsPlane`] is the per-job runtime container the engine updates
//! at `TaskOutput::close_bin` time (once per finished bin, one mutex
//! acquisition amortized over the whole bin). Under
//! `HAMR_STATS=full[:N]` it also keeps a deterministic 1-in-N
//! hash-gated record lineage sample: every hop a sampled key's bins
//! take (emit, reduce ingest) appends a
//! [`LineageHop`], and the resulting [`LineageSample`]s travel with the
//! [`StatsSnapshot`] into the journal where `hamr explain` can replay
//! the path offline.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// `HAMR_STATS` gate: how much of the data plane to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// No sketches, no lineage — the plane is never allocated.
    Off,
    /// Per-(edge, dst) sketches only (the default).
    #[default]
    Edges,
    /// Sketches plus 1-in-`sample_one_in` hash-gated record lineage.
    Full {
        /// Sample a key iff `hash % sample_one_in == 0` (1 = every key).
        sample_one_in: u64,
    },
}

impl StatsMode {
    /// Parse `HAMR_STATS=off|edges|full|full:<N>`. The error names the
    /// accepted forms.
    pub fn from_env_str(s: &str) -> Result<Self, String> {
        let full = |n: u64| StatsMode::Full {
            sample_one_in: n.max(1),
        };
        match s {
            "off" | "0" | "none" => Ok(StatsMode::Off),
            "edges" => Ok(StatsMode::Edges),
            "full" => Ok(full(DEFAULT_SAMPLE_ONE_IN)),
            _ => s
                .strip_prefix("full:")
                .and_then(|n| n.parse().ok())
                .map(full)
                .ok_or_else(|| "off|edges|full[:N]".to_string()),
        }
    }

    pub fn enabled(self) -> bool {
        self != StatsMode::Off
    }

    /// `Some(N)` when lineage sampling is on.
    pub fn lineage_one_in(self) -> Option<u64> {
        match self {
            StatsMode::Full { sample_one_in } => Some(sample_one_in),
            _ => None,
        }
    }
}

/// Default lineage sampling rate under plain `HAMR_STATS=full`.
pub const DEFAULT_SAMPLE_ONE_IN: u64 = 64;

/// The deterministic lineage gate: the same key hash answers the same
/// way at every hop on every node, so a sampled record is recognized
/// everywhere it goes without carrying a wire tag.
#[inline]
pub fn sample_hit(hash: u64, one_in: u64) -> bool {
    one_in <= 1 || hash.is_multiple_of(one_in)
}

// --------------------------------------------------------------------------
// HyperLogLog
// --------------------------------------------------------------------------

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

// --------------------------------------------------------------------------
// SpaceSaving heavy hitters
// --------------------------------------------------------------------------

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

// --------------------------------------------------------------------------
// Log2 value-size histogram
// --------------------------------------------------------------------------

const SIZE_BUCKETS: usize = 64;

/// Log2 histogram over record value sizes: bucket `i` holds sizes in
/// `[2^i, 2^(i+1))` (bucket 0 also takes size 0). Quantiles come back
/// as the inclusive upper bound of the answering bucket, so they are
/// exact to within a factor of two and monotone in `q` by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeHist {
    buckets: [u64; SIZE_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for SizeHist {
    fn default() -> Self {
        SizeHist::new()
    }
}

impl SizeHist {
    pub fn new() -> Self {
        SizeHist {
            buckets: [0u64; SIZE_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, size: u64) {
        let b = 63 - (size | 1).leading_zeros() as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += size;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Inclusive upper bound of the bucket containing the q-quantile
    /// (`0.0 ≤ q ≤ 1.0`); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }

    /// Bucket-wise sum: exact, associative, commutative.
    pub fn merge(&mut self, other: &SizeHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

// --------------------------------------------------------------------------
// SketchSet
// --------------------------------------------------------------------------

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
    pub sizes: SizeHist,
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
            sizes: SizeHist::new(),
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
    pub fn summary(&self, edge: u32, shuffle: bool) -> EdgeStatsSummary {
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
            shuffle,
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

// --------------------------------------------------------------------------
// Snapshot types (what the journal persists and /stats serves)
// --------------------------------------------------------------------------

/// One heavy hitter in a summary: hash, count bounds, and a key-byte
/// sample for naming it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKey {
    pub hash: u64,
    pub count: u64,
    pub err: u64,
    pub key: Vec<u8>,
}

/// A job-wide per-edge profile: sketches merged across every
/// destination partition.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeStatsSummary {
    pub edge: u32,
    /// True for hash-exchange (shuffle) edges — the ones whose distinct
    /// count is comparable across engines.
    pub shuffle: bool,
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

/// What kind of hop a sampled record's bin took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// A normal emit onto an edge.
    Emit,
    /// A reduce task ingested the bin (the path's terminus).
    Reduce,
}

impl HopKind {
    /// The journal's code for the kind. Codes 1, 2 and 4 belonged to
    /// the removed hot-key splitter (scatter, re-emit, absorb) and stay
    /// unassigned: journals written before its removal hold them, and a
    /// reader skips those hops.
    pub fn as_u8(self) -> u8 {
        match self {
            HopKind::Emit => 0,
            HopKind::Reduce => 3,
        }
    }

    pub fn from_u8(v: u8) -> Option<HopKind> {
        Some(match v {
            0 => HopKind::Emit,
            3 => HopKind::Reduce,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            HopKind::Emit => "emit",
            HopKind::Reduce => "reduce",
        }
    }
}

/// One hop of a sampled record: which flowlet moved it, over which
/// edge, from which node to which, and how (emit, reduce ingest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageHop {
    pub kind: HopKind,
    pub flowlet: u32,
    pub flowlet_name: String,
    pub edge: u32,
    pub src: u32,
    pub dst: u32,
    /// Occurrences of the sampled key in the bin this hop covers.
    pub records: u32,
}

/// A sampled key and every hop its records took through the job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageSample {
    pub hash: u64,
    /// First-seen key bytes (truncated to [`KEY_SAMPLE_BYTES`]).
    pub key: Vec<u8>,
    pub hops: Vec<LineageHop>,
}

/// The per-job stats record: merged per-edge summaries plus lineage
/// samples. Persisted to the journal (tag 8) and served by `/stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    pub job: String,
    pub engine: String,
    pub edges: Vec<EdgeStatsSummary>,
    pub samples: Vec<LineageSample>,
}

impl StatsSnapshot {
    /// Largest distinct-key estimate across shuffle edges — "how many
    /// keys did this job actually move between partitions".
    pub fn shuffle_distinct(&self) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.shuffle)
            .map(|e| e.distinct)
            .max()
            .unwrap_or(0)
    }

    /// Hot-key traffic share on the busiest shuffle edge.
    pub fn shuffle_hot_share(&self) -> f64 {
        self.edges
            .iter()
            .filter(|e| e.shuffle && e.records > 0)
            .max_by_key(|e| e.records)
            .map(|e| e.hot_share)
            .unwrap_or(0.0)
    }

    /// Find a sample whose key bytes match any of the candidate
    /// encodings (exact match), or whose hash matches.
    pub fn find_sample(&self, needles: &[Vec<u8>], hash: Option<u64>) -> Option<&LineageSample> {
        self.samples
            .iter()
            .find(|s| needles.iter().any(|n| n == &s.key) || hash == Some(s.hash))
    }

    /// Render as JSON for the `/stats` endpoint and scrape artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"job\":\"");
        out.push_str(&crate::json::escape(&self.job));
        out.push_str("\",\"engine\":\"");
        out.push_str(&crate::json::escape(&self.engine));
        out.push_str("\",\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"edge\":{},\"shuffle\":{},\"records\":{},\"bytes\":{},\"distinct\":{},\"hot_share\":{:.4},\"p50\":{},\"p90\":{},\"p99\":{},\"top\":[",
                e.edge, e.shuffle, e.records, e.bytes, e.distinct, e.hot_share, e.p50, e.p90, e.p99
            ));
            for (j, t) in e.top.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"key\":\"{}\",\"hash\":{},\"count\":{},\"err\":{}}}",
                    crate::json::escape(&format_key(&t.key)),
                    t.hash,
                    t.count,
                    t.err
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"samples\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"key\":\"{}\",\"hash\":{},\"hops\":[",
                crate::json::escape(&format_key(&s.key)),
                s.hash
            ));
            for (j, h) in s.hops.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"kind\":\"{}\",\"flowlet\":\"{}\",\"edge\":{},\"src\":{},\"dst\":{},\"records\":{}}}",
                    h.kind.name(),
                    crate::json::escape(&h.flowlet_name),
                    h.edge,
                    h.src,
                    h.dst,
                    h.records
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Decode one LEB128 varint from the front of `bytes`: (value, bytes
/// consumed). Mirrors the codec crate's integer wire format without
/// depending on it (the stats layer stays dep-free).
fn read_leb128(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, b) in bytes.iter().enumerate().take(10) {
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
    }
    None
}

/// Encode a value as a LEB128 varint (the codec crate's integer wire
/// format).
fn write_leb128(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Human-readable key rendering for the wire encodings the workload
/// codecs produce: length-prefixed UTF-8 strings come back verbatim,
/// varint integers as `u64:N`; raw printable UTF-8 and 4/8-byte
/// little-endian integers cover custom codecs; anything else is hex.
pub fn format_key(key: &[u8]) -> String {
    if key.is_empty() {
        return "<empty>".into();
    }
    // Length-prefixed string: varint len + exactly len UTF-8 bytes.
    if let Some((len, n)) = read_leb128(key) {
        if len > 0 && n + len as usize == key.len() {
            if let Ok(s) = std::str::from_utf8(&key[n..]) {
                if s.chars().all(|c| !c.is_control()) {
                    return s.to_string();
                }
            }
        }
    }
    if let Ok(s) = std::str::from_utf8(key) {
        if s.chars().all(|c| !c.is_control()) {
            return s.to_string();
        }
    }
    // A lone varint consuming the whole buffer: an integer key.
    if let Some((v, n)) = read_leb128(key) {
        if n == key.len() {
            return format!("u64:{v}");
        }
    }
    match key.len() {
        4 => format!("u32:{}", u32::from_le_bytes(key.try_into().unwrap())),
        8 => format!("u64:{}", u64::from_le_bytes(key.try_into().unwrap())),
        _ => {
            let mut s = String::from("0x");
            for b in key.iter().take(16) {
                s.push_str(&format!("{b:02x}"));
            }
            if key.len() > 16 {
                s.push('…');
            }
            s
        }
    }
}

/// Candidate byte encodings for a user-typed key query: the codec
/// crate's wire formats first (length-prefixed UTF-8, LEB128 varint
/// for integers), then raw UTF-8 and little-endian u32/u64/i64 for
/// custom codecs.
pub fn key_query_encodings(query: &str) -> Vec<Vec<u8>> {
    let mut out = vec![query.as_bytes().to_vec()];
    // Length-prefixed string encoding (String/&str keys).
    let mut prefixed = Vec::with_capacity(query.len() + 2);
    write_leb128(query.len() as u64, &mut prefixed);
    prefixed.extend_from_slice(query.as_bytes());
    out.push(prefixed);
    if let Ok(v) = query.parse::<u64>() {
        let mut varint = Vec::with_capacity(10);
        write_leb128(v, &mut varint);
        out.push(varint);
        out.push((v as u32).to_le_bytes().to_vec());
        out.push(v.to_le_bytes().to_vec());
    }
    if let Ok(v) = query.parse::<i64>() {
        // Signed integers ride the codec's zigzag varint.
        let mut zigzag = Vec::with_capacity(10);
        write_leb128(((v << 1) ^ (v >> 63)) as u64, &mut zigzag);
        if !out.contains(&zigzag) {
            out.push(zigzag);
        }
        let le = v.to_le_bytes().to_vec();
        if !out.contains(&le) {
            out.push(le);
        }
    }
    if let Some(hex) = query.strip_prefix("0x") {
        if hex.len() % 2 == 0 {
            if let Ok(bytes) = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
                .collect::<Result<Vec<u8>, _>>()
            {
                out.push(bytes);
            }
        }
    }
    out
}

/// Render one sample's path the way `hamr explain` prints it.
pub fn render_explain(job: &str, sample: &LineageSample) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "key {} (hash {:#018x}) in job '{}':\n",
        format_key(&sample.key),
        sample.hash,
        job
    ));
    for h in &sample.hops {
        let arrow = match h.kind {
            HopKind::Emit => "emitted",
            HopKind::Reduce => "ingested by reduce",
        };
        out.push_str(&format!(
            "  {} via flowlet '{}' edge {}: node {} -> node {} ({} record{})\n",
            arrow,
            h.flowlet_name,
            h.edge,
            h.src,
            h.dst,
            h.records,
            if h.records == 1 { "" } else { "s" }
        ));
    }
    let reducer = sample
        .hops
        .iter()
        .rev()
        .find(|h| h.kind == HopKind::Reduce)
        .map(|h| h.dst);
    match reducer {
        Some(n) => out.push_str(&format!("  final reducer: node {n}\n")),
        None => out.push_str("  final reducer: (no consume hop recorded)\n"),
    }
    out
}

// --------------------------------------------------------------------------
// StatsPlane — the per-job runtime container
// --------------------------------------------------------------------------

/// Most lineage samples kept per job.
pub const MAX_LINEAGE_SAMPLES: usize = 256;
/// Most hops kept per sample.
pub const MAX_LINEAGE_HOPS: usize = 96;

/// Per-job runtime stats container: one [`SketchSet`] per
/// (edge, destination partition), plus the lineage sample map. Shared
/// `Arc` across every node's workers; each slot has its own mutex, so
/// contention is per-(edge, dst), and each bin close locks exactly
/// once.
pub struct StatsPlane {
    mode: StatsMode,
    parts: usize,
    slots: Vec<Mutex<SketchSet>>,
    /// Per edge: is it a hash-exchange (shuffle) edge? Only those are
    /// eligible for lineage sampling — loader edges carry synthetic
    /// line-offset keys that would otherwise fill the sample budget
    /// before any shuffle key arrives — and only their cardinality is
    /// comparable across engines.
    shuffle_edges: Vec<bool>,
    lineage: Mutex<BTreeMap<u64, LineageSample>>,
}

impl StatsPlane {
    /// One sketch set per (edge, destination partition) of a job with
    /// `shuffle_edges.len()` edges.
    pub fn new(shuffle_edges: Vec<bool>, parts: usize, mode: StatsMode) -> Self {
        let parts = parts.max(1);
        let n = shuffle_edges.len().max(1) * parts;
        StatsPlane {
            mode,
            parts,
            slots: (0..n).map(|_| Mutex::new(SketchSet::default())).collect(),
            shuffle_edges,
            lineage: Mutex::new(BTreeMap::new()),
        }
    }

    fn is_shuffle(&self, edge: usize) -> bool {
        self.shuffle_edges.get(edge).copied().unwrap_or(false)
    }

    pub fn mode(&self) -> StatsMode {
        self.mode
    }

    pub fn lineage_on(&self) -> bool {
        self.mode.lineage_one_in().is_some()
    }

    fn slot(&self, edge: u32, dst: u32) -> &Mutex<SketchSet> {
        let i = edge as usize * self.parts + (dst as usize % self.parts);
        &self.slots[i.min(self.slots.len() - 1)]
    }

    /// Fold one finished bin into the (edge, dst) sketch slot and, when
    /// lineage is on, append an emit hop for every sampled key in the
    /// bin. `iter` yields `(hash, key-bytes, value-len)`: entries from the
    /// frame, each with its hash from the builder's column — the one
    /// computed at emit, never recomputed.
    pub fn fold_bin<'a>(
        &self,
        edge: u32,
        dst: u32,
        flowlet: u32,
        flowlet_name: &str,
        src: u32,
        iter: impl Iterator<Item = (u64, &'a [u8], usize)>,
    ) {
        let one_in = self
            .mode
            .lineage_one_in()
            .filter(|_| self.is_shuffle(edge as usize));
        // (hash, key, occurrences) for sampled keys in this bin.
        let mut sampled: Vec<(u64, Vec<u8>, u32)> = Vec::new();
        {
            let mut set = self
                .slot(edge, dst)
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            for (hash, key, vlen) in iter {
                set.observe(hash, key, vlen);
                if let Some(n) = one_in {
                    if sample_hit(hash, n) {
                        match sampled.iter_mut().find(|(h, _, _)| *h == hash) {
                            Some((_, _, c)) => *c += 1,
                            None => sampled.push((
                                hash,
                                key[..key.len().min(KEY_SAMPLE_BYTES)].to_vec(),
                                1,
                            )),
                        }
                    }
                }
            }
        }
        if sampled.is_empty() {
            return;
        }
        let mut lineage = self.lineage.lock().unwrap_or_else(|p| p.into_inner());
        for (hash, key, records) in sampled {
            let entry = match lineage.get_mut(&hash) {
                Some(e) => e,
                None => {
                    if lineage.len() >= MAX_LINEAGE_SAMPLES {
                        continue;
                    }
                    lineage.entry(hash).or_insert(LineageSample {
                        hash,
                        key,
                        hops: Vec::new(),
                    })
                }
            };
            if entry.hops.len() < MAX_LINEAGE_HOPS {
                entry.hops.push(LineageHop {
                    kind: HopKind::Emit,
                    flowlet,
                    flowlet_name: flowlet_name.to_string(),
                    edge,
                    src,
                    dst,
                    records,
                });
            }
        }
    }

    /// Record a reduce-ingest hop for every already-sampled hash in the
    /// bin. Emit hops always precede consumption, so only known hashes
    /// are updated — no new samples originate here.
    pub fn consume_bin(
        &self,
        edge: u32,
        node: u32,
        flowlet: u32,
        flowlet_name: &str,
        src: u32,
        hashes: impl Iterator<Item = u64>,
    ) {
        let Some(n) = self.mode.lineage_one_in() else {
            return;
        };
        let mut hits: Vec<(u64, u32)> = Vec::new();
        for h in hashes {
            if sample_hit(h, n) {
                match hits.iter_mut().find(|(x, _)| *x == h) {
                    Some((_, c)) => *c += 1,
                    None => hits.push((h, 1)),
                }
            }
        }
        if hits.is_empty() {
            return;
        }
        let mut lineage = self.lineage.lock().unwrap_or_else(|p| p.into_inner());
        for (hash, records) in hits {
            if let Some(entry) = lineage.get_mut(&hash) {
                if entry.hops.len() < MAX_LINEAGE_HOPS {
                    entry.hops.push(LineageHop {
                        kind: HopKind::Reduce,
                        flowlet,
                        flowlet_name: flowlet_name.to_string(),
                        edge,
                        src,
                        dst: node,
                        records,
                    });
                }
            }
        }
    }

    /// Per-(edge, dst) summary numbers for gauge publication:
    /// `(records, distinct, hot_share)`; `None` for untouched slots.
    pub fn slot_stats(&self, edge: u32, dst: u32) -> Option<(u64, u64, f64)> {
        let set = self
            .slot(edge, dst)
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if set.records == 0 {
            return None;
        }
        Some((set.records, set.distinct(), set.hot_share()))
    }

    /// Merge every destination's sketches per edge and build the
    /// serializable snapshot.
    pub fn snapshot(&self, job: &str, engine: &str) -> StatsSnapshot {
        let edges_n = self.slots.len() / self.parts;
        let mut edges = Vec::new();
        for e in 0..edges_n {
            let mut merged = SketchSet::default();
            for d in 0..self.parts {
                let set = self.slots[e * self.parts + d]
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                if set.records > 0 {
                    merged.merge(&set);
                }
            }
            if merged.records == 0 {
                continue;
            }
            edges.push(merged.summary(e as u32, self.is_shuffle(e)));
        }
        let samples = self
            .lineage
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .cloned()
            .collect();
        StatsSnapshot {
            job: job.to_string(),
            engine: engine.to_string(),
            edges,
            samples,
        }
    }
}

impl std::fmt::Debug for StatsPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsPlane")
            .field("mode", &self.mode)
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(x: u64) -> u64 {
        // splitmix64 finalizer — the tests' stand-in for stable_hash.
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn hll_small_cardinalities_are_exact() {
        let mut h = Hll::new();
        for i in 0..5u64 {
            for _ in 0..100 {
                h.insert(mix(i));
            }
        }
        assert_eq!(h.distinct(), 5);
    }

    #[test]
    fn hll_large_cardinality_within_three_sigma() {
        let mut h = Hll::new();
        let n = 100_000u64;
        for i in 0..n {
            h.insert(mix(i));
        }
        let est = h.estimate();
        let bound = 3.0 * Hll::standard_error() * n as f64;
        assert!(
            (est - n as f64).abs() <= bound,
            "estimate {est} off from {n} by more than {bound}"
        );
    }

    #[test]
    fn hll_merge_is_register_max() {
        let mut a = Hll::new();
        let mut b = Hll::new();
        for i in 0..1000u64 {
            a.insert(mix(i));
            b.insert(mix(i + 500));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.registers(), ba.registers());
        let est = ab.estimate();
        assert!((est - 1500.0).abs() < 1500.0 * 0.05, "union estimate {est}");
    }

    #[test]
    fn spacesaving_tracks_heavy_hitter_exactly_under_capacity() {
        let mut s = SpaceSaving::new(8);
        for _ in 0..100 {
            s.observe(1, b"hot", 1);
        }
        for i in 2..6u64 {
            s.observe(i, b"cold", 1);
        }
        assert_eq!(s.get(1), Some((100, 0)));
        assert_eq!(s.guaranteed(1), 100);
        let top = s.top();
        assert_eq!(top[0].hash, 1);
        assert_eq!(&*top[0].key, b"hot");
    }

    #[test]
    fn spacesaving_invariant_survives_eviction() {
        let mut s = SpaceSaving::new(4);
        let mut truth = std::collections::HashMap::new();
        for i in 0..1000u64 {
            let k = i % 13;
            s.observe(k, &k.to_le_bytes(), 1);
            *truth.entry(k).or_insert(0u64) += 1;
        }
        for e in s.top() {
            let t = truth[&e.hash];
            assert!(e.count >= t, "count {} < true {t}", e.count);
            assert!(
                e.count - e.err <= t,
                "guaranteed {} > true {t}",
                e.count - e.err
            );
        }
    }

    #[test]
    fn size_hist_quantiles_are_monotone_and_bracketing() {
        let mut h = SizeHist::new();
        for s in [0u64, 1, 7, 8, 100, 1000, 5000] {
            h.record(s);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
        assert!(h.quantile(1.0) >= 5000);
        assert!(h.quantile(0.0) <= 1);
    }

    #[test]
    fn stats_env_strings_parse() {
        assert_eq!(StatsMode::from_env_str("off"), Ok(StatsMode::Off));
        assert_eq!(StatsMode::from_env_str("edges"), Ok(StatsMode::Edges));
        assert_eq!(
            StatsMode::from_env_str("full"),
            Ok(StatsMode::Full {
                sample_one_in: DEFAULT_SAMPLE_ONE_IN
            })
        );
        assert_eq!(
            StatsMode::from_env_str("full:0"),
            Ok(StatsMode::Full { sample_one_in: 1 })
        );
        for typo in ["ful", "full:abc", "full:", "edge"] {
            assert_eq!(
                StatsMode::from_env_str(typo),
                Err("off|edges|full[:N]".to_string())
            );
        }
    }

    #[test]
    fn sample_gate_is_deterministic() {
        for h in 0..1000u64 {
            assert_eq!(sample_hit(h, 7), sample_hit(h, 7));
            assert!(sample_hit(h, 1));
        }
    }

    #[test]
    fn plane_folds_bins_and_records_lineage() {
        let plane = StatsPlane::new(vec![false, true], 4, StatsMode::Full { sample_one_in: 1 });
        let key = b"k1".to_vec();
        let h = mix(1);
        plane.fold_bin(
            1,
            2,
            0,
            "mapper",
            0,
            vec![(h, &key[..], 10), (h, &key[..], 12)].into_iter(),
        );
        plane.consume_bin(1, 2, 1, "reducer", 0, vec![h].into_iter());
        let snap = plane.snapshot("job", "hamr");
        assert_eq!(snap.edges.len(), 1);
        assert_eq!(snap.edges[0].edge, 1);
        assert!(snap.edges[0].shuffle);
        assert_eq!(snap.edges[0].records, 2);
        assert_eq!(snap.edges[0].distinct, 1);
        assert_eq!(snap.samples.len(), 1);
        let s = &snap.samples[0];
        assert_eq!(s.key, key);
        assert_eq!(s.hops.len(), 2);
        assert_eq!(s.hops[0].kind, HopKind::Emit);
        assert_eq!(s.hops[0].records, 2);
        assert_eq!(s.hops[1].kind, HopKind::Reduce);
        let text = render_explain("job", s);
        assert!(text.contains("reduce"), "{text}");
        assert!(snap.to_json().contains("\"edges\""));
    }

    #[test]
    fn key_queries_cover_codec_encodings() {
        let enc = key_query_encodings("5");
        assert!(enc.contains(&b"5".to_vec()));
        assert!(enc.contains(&5u32.to_le_bytes().to_vec()));
        assert!(enc.contains(&5u64.to_le_bytes().to_vec()));
        assert!(key_query_encodings("0x0102").contains(&vec![1u8, 2]));
    }
}
