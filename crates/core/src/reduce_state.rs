//! Per-node input state for reduce and partial-reduce flowlets.
//!
//! * [`ReduceState`] collects every `(key, value)` a node receives for
//!   a reduce flowlet, grouped by key, under a memory budget; overflow
//!   spills to the local disk as sorted runs (see [`crate::spill`]).
//!   At fire time the state splits into independent per-shard group
//!   iterators so reduce work parallelizes across the thread pool.
//!
//! * [`PartialState`] holds the per-key accumulators of a partial
//!   reduce in 16 lock-striped tables the node's workers share
//!   (paper-faithful; §5.2 blames exactly this for the
//!   HistogramRatings slowdown).
//!
//! Both consume [`FrameBin`]s, which carry keys and values but not the
//! producer's key hash. The two consumers that shard by key — reduce
//! ingest (sub-shard) and the shared partial tables (stripe) — call
//! `stable_hash` once per record, and the stripe's table probes with
//! that same hash; nothing else here does.
//! Reduce ingestion copies each value once, into its sub-shard's
//! [`Groups`] arena, and a fire hands the reducer borrowed slices of
//! that arena: no allocation per record on either side, and a bin's
//! frame is free as soon as it is ingested (M3R's "keep the shuffled
//! sequence in memory as it arrived").
//! Partial-reduce folding borrows entries and copies only the key, only
//! on first sight, into its stripe's key arena (`hamr_codec::slots::Accs`): the
//! accumulators outlive the frame, and pinning a whole frame allocation
//! per retained key would hoard memory. A fire hands each stripe's
//! table to a finish task whole; no entry is copied out of it.

use crate::flowlet::{AccTable, PartialReduceFn};
use crate::record::FrameBin;
use crate::spill::{merge_runs, Run};
use hamr_codec::slots::{u32_at, Slots, ARENA_MAX};
use hamr_codec::{stable_hash, write_entry};
use hamr_simdisk::{Disk, DiskError};
use hamr_trace::{EventKind, Gauge, Labels, Observe, Tracer};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Sub-shard index for a key, from its `stable_hash`. Uses the
/// *upper* hash bits: the lower bits already picked the node
/// (`hash % nodes`), so using them again would collapse every key on a
/// node into one shard.
#[inline]
fn sub_shard(hash: u64, shards: usize) -> usize {
    ((hash >> 32) % shards as u64) as usize
}

/// Bytes of a group's header: `klen`, the value count and the offset of
/// its last value, as little-endian `u32`s. The key follows, then the
/// group's first value.
const GROUP_HEADER: usize = 12;
/// Bytes of a value's header: the offset of its group's next value
/// (meaningful only while one follows) and `vlen`. The value follows.
const VALUE_HEADER: usize = 8;

#[inline]
fn put_u32(arena: &mut [u8], at: usize, word: usize) {
    arena[at..at + 4].copy_from_slice(&(word as u32).to_le_bytes());
}

/// One sub-shard's groups: each record's value appended to a byte arena
/// and linked onto its key's chain, keys found through a [`Slots`] table
/// — a combine buffer's shape, keeping every value instead of folding.
#[derive(Default)]
pub(crate) struct Groups {
    arena: Vec<u8>,
    slots: Slots,
}

impl Groups {
    /// Arena capacity and table bytes: what the memory budget is
    /// charged. The arena grows by doubling, so its length would
    /// under-count the heap it holds by up to half.
    fn footprint(&self) -> usize {
        self.arena.capacity() + self.slots.bytes()
    }

    fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Link `value` onto the end of `key`'s chain.
    fn push(&mut self, hash: u64, key: &[u8], value: &[u8]) {
        let v = self.arena.len();
        assert!(
            v + GROUP_HEADER + key.len() + VALUE_HEADER + value.len() < ARENA_MAX,
            "reduce arena past {ARENA_MAX} bytes"
        );
        if self.slots.is_full() {
            self.slots.grow();
        }
        let is_key = |at: usize| self.group(at).0 == key;
        match self.slots.probe(hash, is_key) {
            Ok(slot) => {
                let at = self.slots.offset(slot);
                let tail = u32_at(&self.arena, at + 8) as usize;
                let count = u32_at(&self.arena, at + 4) as usize;
                put_u32(&mut self.arena, tail, v);
                put_u32(&mut self.arena, at + 4, count + 1);
                put_u32(&mut self.arena, at + 8, v);
            }
            Err(slot) => {
                self.slots.set(slot, hash, v);
                let first = v + GROUP_HEADER + key.len();
                for word in [key.len(), 1, first] {
                    self.arena.extend_from_slice(&(word as u32).to_le_bytes());
                }
                self.arena.extend_from_slice(key);
            }
        }
        self.arena.extend_from_slice(&[0; 4]);
        self.arena
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.arena.extend_from_slice(value);
    }

    /// The group whose header is at `at`: its key and its values, in
    /// arrival order.
    fn group(&self, at: usize) -> (&[u8], Chain<'_>) {
        let k = at + GROUP_HEADER;
        let klen = u32_at(&self.arena, at) as usize;
        let chain = Chain {
            arena: &self.arena,
            next: k + klen,
            left: u32_at(&self.arena, at + 4) as usize,
        };
        (&self.arena[k..k + klen], chain)
    }

    /// Every group, in table order.
    fn groups(&self) -> impl Iterator<Item = (&[u8], Chain<'_>)> {
        self.slots.offsets().map(|at| self.group(at))
    }

    /// Every `(key, value)` held, as one run of frame entries: sorted
    /// by key, each group's values in arrival order.
    fn run(&self) -> Vec<u8> {
        let mut order: Vec<usize> = self.slots.offsets().collect();
        order.sort_unstable_by_key(|&at| self.group(at).0);
        let mut run = Vec::with_capacity(self.arena.len());
        for (key, values) in order.into_iter().map(|at| self.group(at)) {
            values.for_each(|v| write_entry(&mut run, key, v));
        }
        run
    }
}

/// One group's values, borrowed from its arena.
struct Chain<'a> {
    arena: &'a [u8],
    next: usize,
    left: usize,
}

impl<'a> Iterator for Chain<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let at = self.next;
        let v = at + VALUE_HEADER;
        self.next = u32_at(self.arena, at) as usize;
        Some(&self.arena[v..v + u32_at(self.arena, at + 4) as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

#[derive(Default)]
struct ReduceShard {
    groups: Groups,
    runs: Vec<String>,
}

/// Grouped key-value state for one reduce flowlet instance.
pub(crate) struct ReduceState {
    shards: Vec<Mutex<ReduceShard>>,
    disk: Disk,
    /// Memory budget across all shards of this instance.
    budget: usize,
    spill_prefix: String,
    spilled_bytes: AtomicU64,
    tracer: Tracer,
    node: u32,
    flowlet: u32,
    /// Gauge mirroring bytes resident across all in-memory shards
    /// (spilled bytes leave the gauge when the shard drains).
    resident_gauge: Gauge,
}

impl ReduceState {
    /// State for flowlet `flowlet` on `node`; registers its own
    /// `reduce_resident_bytes` gauge with the run's registry.
    pub(crate) fn new(
        shards: usize,
        budget: usize,
        disk: Disk,
        obs: &Observe,
        node: u32,
        flowlet: u32,
    ) -> Self {
        assert!(shards > 0);
        ReduceState {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            disk,
            budget,
            spill_prefix: format!("hamr.spill.f{flowlet}"),
            spilled_bytes: AtomicU64::new(0),
            tracer: obs.tracer.clone(),
            node,
            flowlet,
            resident_gauge: obs.gauge(
                "reduce_resident_bytes",
                Labels::new().node(node).flowlet(flowlet),
            ),
        }
    }

    /// Fold one bin into the grouped state, spilling a sub-shard when it
    /// crosses its slice of the budget. The bin's records are bucketed
    /// by sub-shard first, so the bin takes each touched sub-shard's
    /// lock once. `worker` labels any spill this triggers in the trace.
    pub(crate) fn ingest(&self, worker: usize, bin: &FrameBin) -> Result<(), DiskError> {
        let n = self.shards.len();
        let budget = (self.budget / n).clamp(1, ARENA_MAX / 2);
        let mut records = Vec::with_capacity(bin.len());
        records.extend(bin.frame.iter().map(|(key, value)| {
            let hash = stable_hash(key);
            (sub_shard(hash, n), hash, key, value)
        }));
        // The gauge is a shared cell: net the bin's effect here and
        // publish it once, not once per record under the shard lock.
        let mut resident = 0i64;
        for s in 0..n {
            let mut mine = records.iter().filter(|r| r.0 == s).peekable();
            if mine.peek().is_none() {
                continue;
            }
            let mut shard = self.shards[s].lock();
            let before = shard.groups.footprint() as i64;
            for &(_, hash, key, value) in mine {
                shard.groups.push(hash, key, value);
                if shard.groups.footprint() > budget {
                    self.spill_locked(worker, &mut shard)?;
                }
            }
            resident += shard.groups.footprint() as i64 - before;
        }
        self.resident_gauge.add(resident);
        Ok(())
    }

    fn spill_locked(&self, worker: usize, shard: &mut ReduceShard) -> Result<(), DiskError> {
        if shard.groups.is_empty() {
            return Ok(());
        }
        self.tracer.emit(
            self.node,
            worker as u32,
            EventKind::SpillStart {
                flowlet: self.flowlet,
            },
        );
        let name = self.disk.temp_name(&self.spill_prefix);
        let run = shard.groups.run();
        self.disk.write_all(&name, &run)?;
        // The arena gives its capacity back, since the budget charges
        // it; the table keeps its capacity for the refill.
        shard.groups.arena = Vec::new();
        shard.groups.slots.clear();
        self.spilled_bytes.fetch_add(run.len() as u64, Relaxed);
        self.tracer.emit(
            self.node,
            worker as u32,
            EventKind::SpillEnd {
                flowlet: self.flowlet,
                bytes: run.len() as u64,
            },
        );
        shard.runs.push(name);
        Ok(())
    }

    /// Total bytes this instance has spilled so far.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes.load(Relaxed)
    }

    /// Split into independent per-shard group iterators for firing.
    pub(crate) fn into_shards(self) -> Result<Vec<FireShard>, DiskError> {
        let disk = self.disk;
        // The grouped state hands its bytes to the fire iterators;
        // from the gauge's perspective it no longer holds them.
        self.resident_gauge.set(0);
        self.shards
            .into_iter()
            .map(|m| {
                let shard = m.into_inner();
                FireShard::build(shard, &disk)
            })
            .collect()
    }
}

/// Iterates one shard's `(key, values)` groups.
pub(crate) enum FireShard {
    /// Nothing spilled: the groups where ingest left them.
    Memory(Groups),
    /// The spilled runs, then the in-memory remainder as one more run,
    /// merged in key order.
    Merge(Vec<Run>),
}

impl FireShard {
    fn build(shard: ReduceShard, disk: &Disk) -> Result<Self, DiskError> {
        if shard.runs.is_empty() {
            return Ok(FireShard::Memory(shard.groups));
        }
        let runs = shard.runs.iter().map(|run| Run::open(disk, run));
        let mut runs = runs.collect::<Result<Vec<_>, _>>()?;
        runs.push(Run::memory(shard.groups.run()));
        Ok(FireShard::Merge(runs))
    }

    /// Hand every group to `reduce`: its key and an iterator over its
    /// values, both borrowed. A `reduce` that stops pulling early leaves
    /// the next group whole. Fails on a spilled run that ends inside an
    /// entry.
    pub(crate) fn fire(
        self,
        mut reduce: impl FnMut(&[u8], &mut dyn Iterator<Item = &[u8]>),
    ) -> Result<(), DiskError> {
        match self {
            FireShard::Memory(groups) => {
                for (key, mut values) in groups.groups() {
                    reduce(key, &mut values);
                }
            }
            FireShard::Merge(mut runs) => merge_runs(&mut runs, reduce)?,
        }
        Ok(())
    }

    /// True when the shard holds no groups. Fire shards are scheduled
    /// as independent (stealable) tasks; empty shards are filtered out
    /// before dispatch so they don't inflate task and steal counts.
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            FireShard::Memory(groups) => groups.is_empty(),
            // A merge shard only exists because runs were spilled, so
            // it always yields at least one group.
            FireShard::Merge(_) => false,
        }
    }
}

/// Accumulator state for one partial-reduce flowlet instance: 16
/// lock-striped tables shared by the node's workers, each made and
/// folded by the flowlet's reducer. With a skewed key space most
/// updates hit one stripe and serialize — deliberately reproducing the
/// paper's contention pathology. No serialization happens on the fold
/// path (see [`AccTable`]).
pub(crate) struct PartialState {
    reducer: Arc<dyn PartialReduceFn>,
    stripes: Vec<Mutex<AccTable>>,
}

const SHARED_STRIPES: usize = 16;

impl PartialState {
    pub(crate) fn new(reducer: Arc<dyn PartialReduceFn>) -> Self {
        PartialState {
            stripes: (0..SHARED_STRIPES)
                .map(|_| Mutex::new(reducer.table()))
                .collect(),
            reducer,
        }
    }

    /// Fold a bin into the accumulators. Entries are borrowed from the
    /// frame; the key's one hash picks the stripe and probes its table.
    pub(crate) fn fold_bin(&self, bin: &FrameBin) {
        for (key, value) in bin.frame.iter() {
            // Per-record lock acquisition is the point: this is the
            // shared-variable update the paper describes.
            let hash = stable_hash(key);
            let mut table = self.stripes[sub_shard(hash, self.stripes.len())].lock();
            self.reducer.fold(&mut table, hash, key, value);
        }
    }

    /// Take every non-empty stripe's table, leaving a fresh one in its
    /// place: the state is empty for the next streaming epoch.
    pub(crate) fn drain(&self) -> Vec<AccTable> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let mut table = stripe.lock();
            if !self.reducer.is_empty(&table) {
                out.push(std::mem::replace(&mut *table, self.reducer.table()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowlet::Emitter;
    use bytes::Bytes;
    use hamr_codec::slots::Accs;
    use hamr_codec::stable_hash;
    use hamr_simdisk::DiskConfig;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn bin(pairs: &[(&[u8], &[u8])]) -> FrameBin {
        FrameBin::from_pairs(0, pairs)
    }

    fn test_state(shards: usize, budget: usize, disk: Disk) -> ReduceState {
        ReduceState::new(shards, budget, disk, &Observe::default(), 0, 0)
    }

    /// Each key's values, sorted.
    type Reference = BTreeMap<Vec<u8>, Vec<Vec<u8>>>;

    /// Fire every shard, pulling at most `pull(key)` values of each
    /// group, and return what came out.
    fn fire_all(shards: Vec<FireShard>, pull: impl Fn(&[u8]) -> usize) -> Reference {
        let mut out = Reference::new();
        for shard in shards {
            shard
                .fire(|key, values| {
                    let mut got: Vec<Vec<u8>> =
                        values.take(pull(key)).map(<[u8]>::to_vec).collect();
                    got.sort();
                    assert!(out.insert(key.to_vec(), got).is_none(), "a key fired twice");
                })
                .unwrap();
        }
        out
    }

    fn drain_all(shards: Vec<FireShard>) -> Reference {
        fire_all(shards, |_| usize::MAX)
    }

    fn runs(st: &ReduceState) -> usize {
        st.shards.iter().map(|s| s.lock().runs.len()).sum()
    }

    #[test]
    fn reduce_state_groups_by_key() {
        let disk = Disk::new(DiskConfig::instant());
        let st = test_state(4, 1 << 20, disk);
        st.ingest(0, &bin(&[(b"a", b"1"), (b"b", b"2"), (b"a", b"3")]))
            .unwrap();
        let want = [(b"a", vec![b"1", b"3"]), (b"b", vec![b"2"])];
        let want = want.map(|(k, vs)| (k.to_vec(), vs.iter().map(|v| v.to_vec()).collect()));
        assert_eq!(drain_all(st.into_shards().unwrap()), Reference::from(want));
    }

    /// The budget is charged the heap the arena holds. Just past a
    /// power of two the doubled arena is nearly half empty, so charging
    /// its length would under-count it by almost 2x; after a spill the
    /// arena holds nothing.
    #[test]
    fn the_budget_is_charged_the_arenas_capacity() {
        let (key, value) = (&b"k"[..], &b"value"[..]);
        let mut groups = Groups::default();
        while groups.arena.len() <= 4096 {
            groups.push(stable_hash(key), key, value);
        }
        assert!(groups.arena.len() < 4096 + VALUE_HEADER + value.len() + 1);
        let charged = groups.footprint() - groups.slots.bytes();
        assert!(
            charged >= 2 * 4096,
            "{charged} B charged for an arena of 8 KiB"
        );

        let disk = Disk::new(DiskConfig::instant());
        let st = test_state(1, 4096, disk);
        let records = vec![(key, value); 4096 / (VALUE_HEADER + value.len())];
        st.ingest(0, &bin(&records)).unwrap();
        let shard = st.shards[0].lock();
        assert!(
            !shard.runs.is_empty(),
            "4 KiB of values spill on a 4 KiB budget"
        );
        assert!(
            shard.groups.footprint() <= 4096,
            "a spill leaves the shard under budget"
        );
    }

    /// Restated for the arena: ingest copies a value once, into its
    /// sub-shard's arena (the bin's frame is free after ingest), and a
    /// fire lends the reducer that copy instead of making another.
    #[test]
    fn fired_values_borrow_the_shard_arena() {
        let st = test_state(1, 1 << 20, Disk::new(DiskConfig::instant()));
        st.ingest(0, &bin(&[(b"key", b"value-in-the-arena")]))
            .unwrap();
        let shard = st.into_shards().unwrap().pop().unwrap();
        let FireShard::Memory(groups) = &shard else {
            panic!("nothing spilled")
        };
        let arena = groups.arena.as_ptr_range();
        let mut seen = 0;
        shard
            .fire(|_, values| {
                for v in values {
                    assert!(arena.contains(&v.as_ptr()), "value should lie in the arena");
                    seen += 1;
                }
            })
            .unwrap();
        assert_eq!(seen, 1);
    }

    #[test]
    fn tiny_budget_forces_spill_and_merge_preserves_groups() {
        let disk = Disk::new(DiskConfig::instant());
        // Budget so small every ingest spills.
        let st = test_state(2, 64, disk.clone());
        for i in 0..50u64 {
            let key = format!("key{}", i % 10);
            let value = format!("v{i}");
            st.ingest(0, &bin(&[(key.as_bytes(), value.as_bytes())]))
                .unwrap();
        }
        assert!(st.spilled_bytes() > 0, "expected spills");
        assert!(!disk.is_empty(), "spill files on disk");
        let groups = drain_all(st.into_shards().unwrap());
        assert_eq!(groups.len(), 10);
        let total: usize = groups.values().map(Vec::len).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn no_spill_under_budget() {
        let disk = Disk::new(DiskConfig::instant());
        let st = test_state(4, 1 << 20, disk.clone());
        st.ingest(0, &bin(&[(b"a", b"1")])).unwrap();
        assert_eq!(st.spilled_bytes(), 0);
        assert!(disk.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The groups a reduce fires are a `BTreeMap`'s: every key once,
        /// with every value — empty keys and values and values past
        /// `u16::MAX` included — whether the budget spills never, once
        /// (at the last record), now and then, or at every record; a
        /// reducer that stops pulling one group early leaves the next
        /// whole; and keys whose hashes share a tag (five tags for up
        /// to 300 keys, through every growth of the table) are told
        /// apart by their bytes.
        #[test]
        fn grouping_matches_a_btreemap(
            ids in prop::collection::vec((0u16..300, 0usize..40), 1..400),
            shards in 1usize..4,
            spills in 0u8..4,
            per_bin in 1usize..16,
        ) {
            // Key 0 is empty, and so is every value of length 0.
            let records: Vec<(Vec<u8>, Vec<u8>)> = ids.iter().enumerate().map(|(i, &(id, len))| {
                let key = format!("k{id}").into_bytes();
                let value = if len == 39 { vec![i as u8; 70_000] } else { format!("{i}.").repeat(len).into_bytes() };
                (if id == 0 { Vec::new() } else { key }, value)
            }).collect();
            let mut reference = Reference::new();
            for (k, v) in &records {
                reference.entry(k.clone()).or_default().push(v.clone());
            }
            reference.values_mut().for_each(|vs| vs.sort());
            let ingest = |st: &ReduceState| {
                for chunk in records.chunks(per_bin) {
                    let pairs: Vec<_> = chunk.iter().map(|(k, v)| (&k[..], &v[..])).collect();
                    st.ingest(0, &bin(&pairs)).unwrap();
                }
            };
            let disk = Disk::new(DiskConfig::instant());
            let whole = test_state(1, usize::MAX, disk.clone());
            ingest(&whole);
            let full = whole.shards[0].lock().groups.footprint();
            let shards = if spills == 1 { 1 } else { shards };
            let budget = [usize::MAX, full - 1, full / 3, 1][spills as usize];
            let st = test_state(shards, budget, disk);
            ingest(&st);
            match spills {
                0 => prop_assert_eq!(runs(&st), 0),
                1 => prop_assert_eq!(runs(&st), 1),
                2 => prop_assert!(shards > 1 || runs(&st) >= 1),
                _ => prop_assert_eq!(runs(&st), records.len()),
            }
            let pull = |key: &[u8]| match key.last() {
                Some(b) if b % 3 == 0 => usize::from(b % 2 == 0),
                _ => usize::MAX,
            };
            let fired = fire_all(st.into_shards().unwrap(), pull);
            prop_assert_eq!(fired.len(), reference.len());
            for (key, want) in &reference {
                let got = &fired[key];
                prop_assert_eq!(got.len(), pull(key).min(want.len()));
                prop_assert!(got.iter().all(|v| want.contains(v)));
            }
            let mut tagged = Groups::default();
            for ((k, v), &(id, _)) in records.iter().zip(&ids) {
                tagged.push(u64::from(id % 5), k, v);
            }
            prop_assert_eq!(drain_all(vec![FireShard::Memory(tagged)]), reference);
        }
    }

    fn sum_state() -> PartialState {
        let sums = crate::typed::partial_fn::<Bytes, u64, u64, _, _, _>(
            |v| v,
            |acc, v| acc + v,
            |_ctx, k, acc, out: &mut Emitter| out.output_t(&k, &acc),
        );
        PartialState::new(Arc::new(sums))
    }

    fn u64b(v: u64) -> Bytes {
        hamr_codec::Codec::to_bytes(&v)
    }

    /// Drain `state` and read every table's sums.
    fn partial_sums(state: &PartialState) -> Vec<(Bytes, u64)> {
        let mut sums = Vec::new();
        for table in state.drain() {
            let mut table = table.downcast::<Accs<u64>>().expect("a sum table");
            table.drain(usize::MAX, |key, acc| {
                sums.push((Bytes::copy_from_slice(key), acc))
            });
        }
        sums.sort();
        sums
    }

    #[test]
    fn shared_partial_state_sums() {
        let st = sum_state();
        st.fold_bin(&bin(&[
            (b"x", &u64b(1)),
            (b"y", &u64b(10)),
            (b"x", &u64b(2)),
        ]));
        st.fold_bin(&bin(&[(b"x", &u64b(4))]));
        let sums = partial_sums(&st);
        assert_eq!(sums, vec![(b("x"), 7), (b("y"), 10)]);
        // Drained: empty now.
        assert!(partial_sums(&st).is_empty());
    }

    #[test]
    fn partial_state_concurrent_folds_are_correct() {
        let st = Arc::new(sum_state());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let st = Arc::clone(&st);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        st.fold_bin(&bin(&[(b"hot", &u64b(1))]));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(partial_sums(&st), vec![(b("hot"), 1600)]);
    }

    #[test]
    fn sub_shard_spreads_node_local_keys() {
        // Keys that all hash to the same node (mod 8) must still spread
        // over sub-shards, because sub_shard uses the upper hash bits.
        let nodes = 8;
        let shards = 4;
        let mut used = std::collections::HashSet::new();
        let mut found = 0;
        for i in 0..100_000u64 {
            let key = i.to_le_bytes();
            if hamr_codec::partition(&key, nodes) == 3 {
                used.insert(sub_shard(stable_hash(&key), shards));
                found += 1;
                if found > 200 {
                    break;
                }
            }
        }
        assert_eq!(used.len(), shards, "all sub-shards should be used");
    }
}
