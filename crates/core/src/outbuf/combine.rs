//! In-node combining (paper §5.2): the [`Combiner`] contract, the arena
//! buffers a worker folds into, and the node's shelf of them.
//!
//! The paper's one inversion — mapred beating HAMR 4x on skewed
//! HistogramRatings — is a hot reduce partition: every record of the
//! two hot movie keys funnels through one node's shuffle edge while
//! mapred's map-side combiner collapses them before they ship. There is
//! one mechanism against it, switchable via
//! [`SkewConfig`](crate::SkewConfig) / `HAMR_SKEW` so `table2` can
//! ablate it: a per-edge associative [`Combiner`] (registered with
//! `JobBuilder::connect_combined`) pre-aggregates duplicate keys on the
//! producer node before bins ship, so the hot edge carries a handful of
//! partials instead of raw records (after "Hadoop MapReduce Performance
//! Enhancement Using In-node Combiners"). The buffers it folds into are
//! a worker's, not a task's: [`CombineBuf`], lent off the [`CombineShelf`].
//!
//! Which edges combine is decided once per job, in `ExecPlan::compile`
//! (`crate::plan`): an associative combiner on a `Hash` exchange into a
//! `Reduce`/`PartialReduce`. Two further mechanisms — dynamic hot-key
//! splitting and an OS4M-style planner thread migrating whole reduce
//! partitions mid-job — were removed: see DESIGN.md "Skew mitigation".

use crate::graph::EdgeId;
use crate::NodeId;
use hamr_codec::slots::{u32_at, Slots, ARENA_MAX};
use hamr_trace::{Gauge, Labels, Observe};
use parking_lot::{Mutex, MutexGuard};
use std::fmt;
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

/// Unacknowledged bins on an (edge, destination) at or above which a
/// task's end leaves its combine buffers' partials for that destination
/// where they are (never more than the window itself). Low, and the
/// link idles between task ends; high, and every task ships its keys
/// again instead of folding the next task's into them. The issue's
/// prototype swept it on `wordcount_shuffle` (fastest / median ms of
/// eight): 2 → 531 / 606, 4 → 515 / 524, 8 → 460 / 479, 16 → 468 / 476,
/// 32 → 471 / 487, and on `wordcount_cpu` 8 → 162 / 211, 32 → 244 / 305;
/// this code's own two passes (EXPERIMENTS.md "Node-level combining")
/// put 32 last on both workloads and 8 first or within noise of it.
pub(super) const COMBINE_LOW_WATER: usize = 8;

/// Bytes of arena and table one combine buffer may hold before a fold
/// sheds its older half. With the low-water drain, on
/// `wordcount_shuffle` (fastest / median ms of four): 256 KiB folds too
/// little (527 / 577), 4 MiB holds a drain the flush then has to push
/// through the window at once (534 / 542), 1 MiB gave 477–483 /
/// 508–514.
pub(super) const COMBINE_BUDGET: usize = 1 << 20;

/// Bytes of an arena entry's fixed header: `hash u64`, then `klen`,
/// `vlen` and `vcap` as `u32`, all little-endian. The key follows, then
/// `vcap` bytes of which the first `vlen` are the value.
pub(super) const ENTRY_HEADER: usize = 20;
/// Set in an entry's `klen` word once its partial has been re-appended
/// further on: a drain walks over it.
const ENTRY_DEAD: u32 = 1 << 31;

/// An arena entry's header, decoded.
struct Entry {
    hash: u64,
    klen: usize,
    vlen: usize,
    vcap: usize,
    dead: bool,
}

impl Entry {
    fn size(&self) -> usize {
        ENTRY_HEADER + self.klen + self.vcap
    }
}

/// The partials one worker holds for one (edge, destination): entries
/// appended to a byte arena in arrival order and found through a
/// [`Slots`] table. A fold overwrites the value where it lies, so a
/// record costs no allocation and the oldest partial is the one at
/// `head`.
#[derive(Default)]
pub(super) struct Held {
    pub(super) arena: Vec<u8>,
    /// Offset of the oldest entry not yet drained; what lies before it
    /// is garbage until the next rebuild.
    pub(super) head: usize,
    /// Arena bytes of dead entries at or after `head`.
    pub(super) dead: usize,
    pub(super) slots: Slots,
    pub(super) live: usize,
}

impl Held {
    fn entry(&self, at: usize) -> Entry {
        let hash = u64::from_le_bytes(self.arena[at..at + 8].try_into().expect("eight bytes"));
        let klen = u32_at(&self.arena, at + 8);
        Entry {
            hash,
            klen: (klen & !ENTRY_DEAD) as usize,
            vlen: u32_at(&self.arena, at + 12) as usize,
            vcap: u32_at(&self.arena, at + 16) as usize,
            dead: klen & ENTRY_DEAD != 0,
        }
    }

    /// Arena and table bytes this destination occupies, garbage
    /// included; 0 when nothing is held.
    pub(super) fn footprint(&self) -> usize {
        self.arena.len() + self.slots.bytes()
    }

    /// Bytes reserved for a value of `len`: a little slack, so that a
    /// growing partial (a varint count crossing a width) is usually
    /// rewritten where it lies.
    pub(super) fn value_capacity(len: usize) -> usize {
        len + len / 4 + 2
    }

    /// Append a fresh entry; returns its offset.
    fn append(&mut self, hash: u64, key: &[u8], value: &[u8]) -> usize {
        let at = self.arena.len();
        let vcap = Self::value_capacity(value.len());
        assert!(
            at + ENTRY_HEADER + key.len() + vcap < ARENA_MAX,
            "combine arena past {ARENA_MAX} bytes"
        );
        self.arena.extend_from_slice(&hash.to_le_bytes());
        for word in [key.len(), value.len(), vcap] {
            self.arena.extend_from_slice(&(word as u32).to_le_bytes());
        }
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        self.arena.resize(at + ENTRY_HEADER + key.len() + vcap, 0);
        at
    }

    /// Fold one record; true if it merged into a partial already held.
    #[inline]
    fn fold(
        &mut self,
        combiner: &dyn Combiner,
        scratch: &mut Vec<u8>,
        hash: u64,
        key: &[u8],
        value: &[u8],
    ) -> bool {
        if self.slots.is_full() {
            self.rebuild();
        }
        let is_key = |at: usize| {
            let k = at + ENTRY_HEADER;
            self.arena[k..k + self.entry(at).klen] == *key
        };
        let slot = match self.slots.probe(hash, is_key) {
            Ok(slot) => slot,
            Err(slot) => {
                let at = self.append(hash, key, value);
                self.slots.set(slot, hash, at);
                self.live += 1;
                return false;
            }
        };
        let at = self.slots.offset(slot);
        let e = self.entry(at);
        let v = at + ENTRY_HEADER + e.klen;
        scratch.clear();
        combiner.combine(key, &self.arena[v..v + e.vlen], value, scratch);
        if scratch.len() <= e.vcap {
            self.arena[v..v + scratch.len()].copy_from_slice(scratch);
            self.arena[at + 12..at + 16].copy_from_slice(&(scratch.len() as u32).to_le_bytes());
        } else {
            // Outgrown: the partial moves to the tail (and is the
            // youngest again); the old entry stays as garbage for a
            // drain to walk over.
            let dead = (e.klen as u32 | ENTRY_DEAD).to_le_bytes();
            self.arena[at + 8..at + 12].copy_from_slice(&dead);
            self.dead += e.size();
            let moved = self.append(hash, key, scratch);
            self.slots.set(slot, hash, moved);
        }
        true
    }

    /// Hand the `n` oldest partials to `each` as `(hash, key, value)`,
    /// oldest first, and forget them. Returns how many there were.
    fn drain(&mut self, n: usize, mut each: impl FnMut(u64, &[u8], &[u8])) -> usize {
        // Emptying the arena resets the table whole: no need to unlink
        // entry by entry.
        let all = n >= self.live;
        let mut taken = 0;
        while taken < n && self.live > 0 {
            let at = self.head;
            let e = self.entry(at);
            self.head += e.size();
            if e.dead {
                self.dead -= e.size();
                continue;
            }
            if !all {
                self.slots.unlink(e.hash, at);
            }
            self.live -= 1;
            taken += 1;
            let v = at + ENTRY_HEADER + e.klen;
            each(
                e.hash,
                &self.arena[v - e.klen..v],
                &self.arena[v..v + e.vlen],
            );
        }
        if self.live == 0 {
            // Both keep their capacity: the next fold allocates nothing.
            self.arena.clear();
            self.slots.clear();
            (self.head, self.dead) = (0, 0);
        } else if self.head + self.dead > self.arena.len() / 2
            || self.slots.tombs() > self.slots.len() / 2
        {
            self.rebuild();
        }
        taken
    }

    /// Squeeze the garbage out of the arena (the drained prefix, dead
    /// entries) and rebuild the table, without tombstones, at no more
    /// than half full. Linear in what is held; run when the table fills
    /// or garbage passes half, so amortised constant per record.
    fn rebuild(&mut self) {
        if self.head > 0 || self.dead > 0 {
            let (mut from, mut to) = (self.head, 0);
            while from < self.arena.len() {
                let e = self.entry(from);
                if !e.dead {
                    self.arena.copy_within(from..from + e.size(), to);
                    to += e.size();
                }
                from += e.size();
            }
            self.arena.truncate(to);
            (self.head, self.dead) = (0, 0);
        }
        self.slots.reset(self.live);
        let mut at = 0;
        while at < self.arena.len() {
            let e = self.entry(at);
            self.slots.place(e.hash, at);
            at += e.size();
        }
    }
}

/// One worker's in-node combine buffer for one edge: a partial per
/// distinct key, folded in place as duplicates arrive, held per
/// destination node. It belongs to the worker, not to a task — the
/// executing task borrows it from the node's [`CombineShelf`] and puts
/// it back, so duplicates fold across all the tasks a worker runs — and
/// what decides when partials leave is the destination's flow-control
/// window (see [`super::TaskOutput::into_parts`]), not a count.
pub(super) struct CombineBuf {
    combiner: Arc<dyn Combiner>,
    /// Indexed by the key's hash home.
    pub(super) held: Vec<Held>,
    scratch: Vec<u8>,
    /// Footprint of all destinations.
    pub(super) bytes: usize,
    /// What the shelf's gauge currently counts for this buffer.
    pub(super) published: usize,
    /// Records offered, folded into a held partial, and partials
    /// drained since the last [`CombineShelf::put`] — one row of the
    /// audit ledger's combine side-table.
    pub(super) tally: [u64; 3],
}

impl CombineBuf {
    pub(super) fn new(combiner: Arc<dyn Combiner>, nodes: usize) -> Self {
        CombineBuf {
            combiner,
            held: (0..nodes).map(|_| Held::default()).collect(),
            scratch: Vec::new(),
            bytes: 0,
            published: 0,
            tally: [0; 3],
        }
    }

    pub(super) fn entries(&self) -> usize {
        self.held.iter().map(|h| h.live).sum()
    }

    /// Fold one record; returns true if it merged into an existing key
    /// (one record absorbed) rather than starting a new partial.
    #[inline]
    pub(super) fn fold(&mut self, hash: u64, key: &[u8], value: &[u8]) -> bool {
        let home = (hash % self.held.len() as u64) as usize;
        let held = &mut self.held[home];
        let before = held.footprint();
        let merged = held.fold(self.combiner.as_ref(), &mut self.scratch, hash, key, value);
        self.bytes = self.bytes + held.footprint() - before;
        self.tally[0] += 1;
        self.tally[1] += u64::from(merged);
        merged
    }

    /// Drain the `n` oldest partials bound for `dst` into `each`.
    pub(super) fn drain(&mut self, dst: NodeId, n: usize, each: impl FnMut(u64, &[u8], &[u8])) {
        let held = &mut self.held[dst];
        let before = held.footprint();
        self.tally[2] += held.drain(n, each) as u64;
        self.bytes = self.bytes + held.footprint() - before;
    }

    /// Squeeze out whatever garbage partial drains have left, so that
    /// `bytes` is what the partials held need.
    pub(super) fn compact(&mut self) {
        for held in self.held.iter_mut().filter(|h| h.head > 0 || h.dead > 0) {
            held.rebuild();
        }
        self.bytes = self.held.iter().map(Held::footprint).sum();
    }
}

/// A node's combine buffers, one per (worker, combining edge), for the
/// life of a job. A task takes its worker's buffer for each combining
/// port it has and puts it back when it ends; the lock is held for the
/// take and the put only. A stolen task folds into the thief's buffer,
/// so a buffer never changes owner; the one thread that touches other
/// workers' buffers is the flush task, which runs when no other task of
/// the flowlet does.
pub(crate) struct CombineShelf {
    edges: usize,
    /// `[worker][edge]`; `None` until first used and while lent.
    slots: Vec<Mutex<Option<CombineBuf>>>,
    audit: hamr_trace::Audit,
    /// Gauge: bytes of partials parked in this node's shelved buffers.
    held_gauge: Gauge,
}

impl CombineShelf {
    pub(crate) fn new(node: NodeId, workers: usize, edges: usize, obs: &Observe) -> Self {
        CombineShelf {
            edges,
            slots: (0..workers * edges).map(|_| Mutex::new(None)).collect(),
            audit: obs.audit.clone(),
            held_gauge: obs.gauge("combine_held_bytes", Labels::new().node(node as u32)),
        }
    }

    pub(super) fn workers(&self) -> usize {
        self.slots.len() / self.edges.max(1)
    }

    fn slot(&self, worker: usize, edge: EdgeId) -> MutexGuard<'_, Option<CombineBuf>> {
        self.slots[worker * self.edges + edge].lock()
    }

    pub(super) fn take(&self, worker: usize, edge: EdgeId) -> Option<CombineBuf> {
        self.slot(worker, edge).take()
    }

    /// Enter what was done with `buf` since it was taken in the ledger
    /// and the gauge — once per task, never per record.
    pub(super) fn settle(&self, edge: EdgeId, buf: &mut CombineBuf) {
        let [offered, folded, drained] = std::mem::take(&mut buf.tally);
        if offered | drained != 0 {
            self.audit.combined(edge as u32, offered, folded, drained);
        }
        self.held_gauge.add(buf.bytes as i64 - buf.published as i64);
        buf.published = buf.bytes;
    }

    /// Settle `buf` and shelve it again.
    pub(super) fn put(&self, worker: usize, edge: EdgeId, mut buf: CombineBuf) {
        self.settle(edge, &mut buf);
        *self.slot(worker, edge) = Some(buf);
    }

    /// Partials shelved for `edge` over all workers. Exact while no
    /// task of the edge's producer runs (its buffers are all here).
    pub(crate) fn held_entries(&self, edge: EdgeId) -> usize {
        (0..self.workers())
            .map(|w| self.slot(w, edge).as_ref().map_or(0, CombineBuf::entries))
            .sum()
    }

    /// The job is over, however it ended: nothing is held any more.
    pub(crate) fn retire(&self) {
        self.held_gauge.set(0);
    }
}
